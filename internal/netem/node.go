package netem

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/packet"
)

// App consumes packets addressed to a node (an edge router's egress side, a
// traffic sink, ...).
type App interface {
	// Receive is invoked when a packet destined to this node arrives.
	Receive(p *packet.Packet)
}

// Forwarder intercepts packets a node is about to forward. This is the hook
// through which core-router logic attaches: a Corelite core observes marked
// packets per output link (and never drops), while a CSFQ core implements
// probabilistic dropping.
type Forwarder interface {
	// OnForward is called with the packet and the chosen output link
	// before enqueueing. Returning false drops the packet (a policy drop).
	OnForward(p *packet.Packet, out *Link) bool
}

// Node is a router or host in the simulated cloud.
type Node struct {
	name string
	// id is the node's dense 1-based index (creation order); packets cache
	// it in DstID so per-hop routing is a slice load instead of a string-map
	// lookup. Zero is reserved for "unresolved".
	id        uint32
	net       *Network
	links     map[string]*Link // next-hop node name -> link
	nextHop   map[string]string
	outByID   []*Link // destination node id -> output link, from ComputeRoutes
	app       App
	forwarder Forwarder
}

// Name reports the node's unique name.
func (n *Node) Name() string { return n.name }

// SetApp installs the packet consumer for packets addressed to this node.
func (n *Node) SetApp(a App) { n.app = a }

// SetForwarder installs the forwarding interceptor (core-router logic).
func (n *Node) SetForwarder(f Forwarder) { n.forwarder = f }

// LinkTo reports the link to the named adjacent node, or nil.
func (n *Node) LinkTo(neighbor string) *Link { return n.links[neighbor] }

// Links returns the outgoing links in link-name order, so per-link state
// attached by ranging over them (router ports, their gauges) comes out the
// same on every run.
func (n *Node) Links() []*Link {
	out := make([]*Link, 0, len(n.links))
	for _, l := range n.links {
		out = append(out, l)
	}
	slices.SortFunc(out, func(a, b *Link) int { return strings.Compare(a.name, b.name) })
	return out
}

// Inject hands a packet to the node as if it had been generated locally
// (used by edge routers to launch shaped traffic into the cloud).
func (n *Node) Inject(p *packet.Packet) {
	// A packet may arrive from another cloud (multi-network concatenation)
	// carrying that network's routing handle; resolution is per-network, so
	// it restarts here.
	p.DstID = 0
	n.net.stats.Injected++
	n.net.stats.InjectedBytes += int64(p.SizeBytes)
	if p.Marker != nil {
		n.net.stats.InjectedMarkers++
	}
	n.deliver(p)
}

// deliver processes a packet arriving at (or originating from) the node.
func (n *Node) deliver(p *packet.Packet) {
	if p.DstID == 0 {
		// First hop: resolve the destination name to its dense node id
		// once; every later hop (and the sink test below) is integer work.
		if dn, ok := n.net.nodes[p.Dst]; ok {
			p.DstID = dn.id
		}
	}
	if p.DstID == n.id {
		n.net.stats.Delivered++
		n.net.stats.DeliveredBytes += int64(p.SizeBytes)
		if p.Marker != nil {
			n.net.stats.DeliveredMarkers++
		}
		n.net.trace(TraceEvent{At: n.net.sched.Now(), Kind: EventReceive, Where: n.name, Packet: p})
		if n.app != nil {
			n.app.Receive(p)
		}
		// The sink is the end of the packet's life: apps read it
		// synchronously and must not retain it (see packet.Packet), so
		// ownership returns to the pool here.
		n.net.pool.Put(p)
		return
	}
	// ComputeRoutes resolved every (src, dst) pair into outByID, covering
	// "unknown destination", "no next hop", and "next hop without a link"
	// alike as nil entries (index 0 is the reserved unresolved id), so
	// forwarding is one bounds check and one slice load.
	var out *Link
	if int(p.DstID) < len(n.outByID) {
		out = n.outByID[p.DstID]
	}
	if out == nil {
		n.net.notifyDrop(Drop{Packet: p, Node: n.name, Reason: DropNoRoute, At: n.net.sched.Now()})
		return
	}
	if n.forwarder != nil && !n.forwarder.OnForward(p, out) {
		n.net.notifyDrop(Drop{Packet: p, Node: n.name, Link: out, Reason: DropPolicy, At: n.net.sched.Now()})
		return
	}
	out.send(p)
}

// route returns the next-hop name for dst, for tests.
func (n *Node) route(dst string) (string, error) {
	next, ok := n.nextHop[dst]
	if !ok {
		return "", fmt.Errorf("netem: %s has no route to %s", n.name, dst)
	}
	return next, nil
}
