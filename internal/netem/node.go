package netem

import (
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
	// id is the node's dense index (creation order), the key of its routing
	// state.
	id        uint32
	net       *Network
	out       []*Link // outgoing links in creation order
	app       App
	forwarder Forwarder
	ctrl      ControlReceiver
	// lastDst and lastRef remember the node's last injection, made in
	// routing generation lastGen: a source sends its packets toward one
	// destination, so most injections skip resolving the name.
	lastDst string
	lastRef routeRef
	lastGen uint32
}

// Name reports the node's unique name.
func (n *Node) Name() string { return n.name }

// SetApp installs the packet consumer for packets addressed to this node.
func (n *Node) SetApp(a App) { n.app = a }

// SetControl installs the receiver of control messages addressed to this
// node (see Network.SendControl); an ingress edge installs itself.
func (n *Node) SetControl(r ControlReceiver) { n.ctrl = r }

// SetForwarder installs the forwarding interceptor (core-router logic).
func (n *Node) SetForwarder(f Forwarder) {
	n.forwarder = f
	for _, l := range n.out {
		l.forwarder = f
	}
}

// LinkTo reports the link to the named adjacent node, or nil.
func (n *Node) LinkTo(neighbor string) *Link {
	if nb := n.net.nodes[neighbor]; nb != nil {
		return n.net.linkAt[pairKey(n, nb)]
	}
	return nil
}

// Links returns the outgoing links in link-name order, so per-link state
// attached by ranging over them (router ports, their gauges) comes out the
// same on every run.
func (n *Node) Links() []*Link {
	out := slices.Clone(n.out)
	slices.SortFunc(out, func(a, b *Link) int { return strings.Compare(a.name, b.name) })
	return out
}

// Inject hands a packet to the node as if it had been generated locally
// (used by edge routers to launch shaped traffic into the cloud). This is
// where the packet's destination name is resolved, once, to its route; a
// packet with no route to its destination is dropped here.
func (n *Node) Inject(p *packet.Packet) {
	net := n.net
	net.stats.Injected++
	net.stats.InjectedBytes += int64(p.SizeBytes)
	if p.Marker != nil {
		net.stats.InjectedMarkers++
	}
	if p.Dst != n.lastDst || n.lastGen != net.gen {
		n.lastRef = routeRef{route: noRoute}
		if dst := net.nodes[p.Dst]; dst != nil {
			n.lastRef = net.route(n, dst)
		}
		n.lastDst, n.lastGen = p.Dst, net.gen
	}
	if n.lastRef.route == noRoute {
		net.notifyDrop(Drop{Packet: p, Node: n, Reason: DropNoRoute, At: net.sched.Now()})
		return
	}
	p.Route, p.Hop = n.lastRef.route, n.lastRef.hop
	net.forward(n, p)
}

// forward moves a packet that has arrived at (or originates from) node at
// along its route: onto the route's next link, or to at's App when the
// route has no link left.
func (n *Network) forward(at *Node, p *packet.Packet) {
	out := n.hops[p.Route+p.Hop]
	if out == nil {
		n.stats.Delivered++
		n.stats.DeliveredBytes += int64(p.SizeBytes)
		if p.Marker != nil {
			n.stats.DeliveredMarkers++
		}
		n.trace(TraceEvent{At: n.sched.Now(), Kind: EventReceive, Where: at.name, Packet: p})
		if at.app != nil {
			at.app.Receive(p)
		}
		// The sink is the end of the packet's life: apps read it
		// synchronously and must not retain it (see packet.Packet), so
		// ownership returns to the pool here.
		n.pool.Put(p)
		return
	}
	if out.forwarder != nil && !out.forwarder.OnForward(p, out) {
		n.notifyDrop(Drop{Packet: p, Node: at, Link: out, Reason: DropPolicy, At: n.sched.Now()})
		return
	}
	p.Hop++
	out.send(p)
}
