package netem

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// routing is the network's forwarding state, O(Σ path length) in size. A
// route is a dense list of links; a packet carries a route handle and a hop
// index (packet.Packet.Route, .Hop), set once when it is injected, and each
// node forwards it on the route's link Hop. A pinned path (InstallRoute)
// through the injecting node is followed as pinned; any other pair resolves
// on first use to the shortest path, memoized.
type routing struct {
	// hops stores every route as a run of links ending in nil, and a route
	// handle is the index of its first link. Handle 0 is the empty route
	// of a packet addressed to its injecting node. The arena only grows, so
	// handles stay valid while their packets are in flight.
	hops []*Link
	// pinned maps (node, destination) to the pinned path through the node
	// toward that destination, the last InstallRoute winning; resolved
	// memoizes every pair resolved since the last forget.
	pinned, resolved map[uint64]routeRef
	// pinnedDelay maps (node, first node) of each pinned path to the
	// control-plane latency back along it: the prefix sum of the reverse
	// links' delays, as far as the reverse links exist.
	pinnedDelay map[uint64]time.Duration
	// gen counts forgets; a node's injection cache holds within one.
	gen uint32
	// search holds per-node shortest-path state, rebuilt when the node
	// count changes; stamp numbers the searches.
	search []searchNode
	heap   []searchItem
	stamp  uint32
}

// routeRef is where a packet injected at one node toward another starts:
// its route handle and the injecting node's hop index on it.
type routeRef struct{ route, hop uint32 }

// noRoute marks a pair with no path.
const noRoute = ^uint32(0)

// pairKey packs an ordered pair of node ids into one map key.
func pairKey(from, to *Node) uint64 { return uint64(from.id)<<32 | uint64(to.id) }

// addRoute appends a route to the arena and returns its handle.
func (n *Network) addRoute(links []*Link) uint32 {
	r := uint32(len(n.hops))
	n.hops = append(append(n.hops, links...), nil)
	return r
}

// rest returns the links of a route from ref's hop on.
func (n *Network) rest(ref routeRef) []*Link {
	rest := n.hops[ref.route+ref.hop:]
	return rest[:slices.Index(rest, nil)]
}

// forget discards the memoized routes, so that the next packet between each
// pair resolves against the current nodes, links and pins.
func (n *Network) forget() {
	n.resolved = nil
	n.gen++
}

// ComputeRoutes discards every memoized route. Routes resolve on first use,
// and adding a node, a link or a pinned route discards them too, so no
// caller needs it; it never fails.
func (n *Network) ComputeRoutes() error {
	n.forget()
	return nil
}

// route reports where a packet injected at from toward to starts: on a
// pinned path through from, else on the shortest path, which follows the
// pin toward to of the first node on it that has one — the hop-by-hop
// choice of every node on the way. Unreachable pairs report noRoute.
func (n *Network) route(from, to *Node) routeRef {
	if from == to {
		return routeRef{}
	}
	key := pairKey(from, to)
	if ref, ok := n.resolved[key]; ok {
		return ref
	}
	ref, ok := n.pinned[key]
	if !ok {
		ref = routeRef{route: noRoute}
		if n.shortest(from, to) {
			path := make([]*Link, n.search[to.id].hops)
			for i, v := len(path)-1, to; i >= 0; i, v = i-1, path[i].from {
				path[i] = n.search[v.id].via
			}
			for i := 1; i < len(path); i++ {
				if pin, ok := n.pinned[pairKey(path[i].from, to)]; ok {
					path = append(path[:i:i], n.rest(pin)...)
					break
				}
			}
			ref = routeRef{route: n.addRoute(path)}
		}
	}
	if n.resolved == nil {
		n.resolved = make(map[uint64]routeRef)
	}
	n.resolved[key] = ref
	return ref
}

// InstallRoute pins the node sequence path as the route toward its last
// node: a packet injected at any node of the path toward that destination
// follows the rest of it, and so does one whose shortest path reaches a
// node of it. Generated topologies pin each flow's ECMP choice this way.
// Consecutive nodes must be linked in the forward direction; a later pin
// through a node toward the same destination overrides an earlier one.
//
// The control plane learns the latency from every node of the path back to
// its first node along the reverse links, as far as they exist, so feedback
// from an on-path router reaches the flow's ingress edge with faithful
// timing; past a missing reverse link, PathDelay falls back to routing.
func (n *Network) InstallRoute(path []string) error {
	if len(path) < 2 {
		return fmt.Errorf("netem: route needs at least two nodes, got %d", len(path))
	}
	nodes := make([]*Node, len(path))
	links := make([]*Link, len(path)-1)
	for i, name := range path {
		if nodes[i] = n.nodes[name]; nodes[i] == nil {
			return fmt.Errorf("netem: route references unknown node %q", name)
		}
		if slices.Contains(nodes[:i], nodes[i]) {
			return fmt.Errorf("netem: route visits node %q twice", name)
		}
		if i+1 < len(path) {
			if links[i] = nodes[i].LinkTo(path[i+1]); links[i] == nil {
				return fmt.Errorf("netem: route hop %s->%s has no link", name, path[i+1])
			}
		}
	}
	if n.pinned == nil {
		n.pinned, n.pinnedDelay = make(map[uint64]routeRef), make(map[uint64]time.Duration)
	}
	r, dst := n.addRoute(links), nodes[len(nodes)-1]
	for i, l := range links {
		n.pinned[pairKey(l.from, dst)] = routeRef{route: r, hop: uint32(i)}
	}
	var back time.Duration
	for _, l := range links {
		rev := n.linkAt[pairKey(l.to, l.from)]
		if rev == nil {
			break
		}
		back += rev.delay
		n.pinnedDelay[pairKey(l.to, nodes[0])] = back
	}
	n.forget()
	return nil
}

// Path reports the node sequence from -> ... -> to (inclusive) that a
// packet injected at from toward to follows.
func (n *Network) Path(from, to string) ([]string, error) {
	if a, b := n.nodes[from], n.nodes[to]; a != nil && b != nil {
		if ref := n.route(a, b); ref.route != noRoute {
			path := []string{from}
			for _, l := range n.rest(ref) {
				path = append(path, l.to.name)
			}
			return path, nil
		}
	}
	return nil, fmt.Errorf("netem: no path %s -> %s", from, to)
}

// PathDelay reports the one-way propagation latency from one node to
// another: back along a pinned path's reverse links when to is the first
// node of a pinned path through from, else along the path a packet from
// from to to follows. The control plane times feedback and loss
// notifications with it.
func (n *Network) PathDelay(from, to string) (time.Duration, error) {
	if a, b := n.nodes[from], n.nodes[to]; a != nil && b != nil {
		if d, ok := n.delay(a, b); ok {
			return d, nil
		}
	}
	return 0, fmt.Errorf("netem: no path %s -> %s", from, to)
}

// delay is PathDelay on node handles; it reports false when to cannot be
// reached. A pinned pair costs one map lookup on the packed node ids.
func (n *Network) delay(a, b *Node) (time.Duration, bool) {
	if d, ok := n.pinnedDelay[pairKey(a, b)]; ok {
		return d, true
	}
	ref := n.route(a, b)
	if ref.route == noRoute {
		return 0, false
	}
	var d time.Duration
	for _, l := range n.rest(ref) {
		d += l.delay
	}
	return d, true
}

// searchNode is one node's shortest-path state, current only while its
// stamp is the search's, so a search resets nothing.
type searchNode struct {
	dist  time.Duration
	hops  int32
	stamp uint32
	via   *Link // the last link of the best path so far
	done  bool
}

// searchItem is a heap entry. A node reached again by a shorter path gets a
// new entry, which pops first; the old one is skipped.
type searchItem struct {
	dist time.Duration
	hops int32
	id   uint32
	name string
}

// before orders heap entries by delay, then hop count, then node name.
func (a searchItem) before(b searchItem) bool {
	return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.hops, b.hops), strings.Compare(a.name, b.name)) < 0
}

// shortest runs Dijkstra from src over propagation delay until dst is
// settled and reports whether it was reached; the path is then in the
// search's via links. Ties go to fewer hops, then to the node whose name
// sorts first. Under this order the shortest path from any node of a
// shortest path is that path's suffix, so a route is the hop-by-hop choice
// of every node along it.
func (n *Network) shortest(src, dst *Node) bool {
	if len(n.search) != len(n.byID) {
		n.search = make([]searchNode, len(n.byID))
	}
	n.stamp++
	n.heap = n.heap[:0]
	n.reach(src.id, searchItem{}, nil)
	for len(n.heap) > 0 {
		it := n.pop()
		nd := &n.search[it.id]
		if nd.done { // a stale entry: a shorter path settled the node
			continue
		}
		nd.done = true
		if it.id == dst.id {
			return true
		}
		for _, l := range n.byID[it.id].out {
			next, to := searchItem{dist: it.dist + l.delay, hops: it.hops + 1}, &n.search[l.to.id]
			if to.stamp != n.stamp || next.dist < to.dist || next.dist == to.dist && next.hops < to.hops {
				n.reach(l.to.id, next, l)
			}
		}
	}
	return false
}

// reach records a shorter path to node id and queues it.
func (n *Network) reach(id uint32, it searchItem, via *Link) {
	n.search[id] = searchNode{dist: it.dist, hops: it.hops, stamp: n.stamp, via: via}
	it.id, it.name = id, n.byID[id].name
	h := append(n.heap, it)
	for i := len(h) - 1; i > 0 && h[i].before(h[(i-1)/2]); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	n.heap = h
}

// pop removes and returns the heap's first entry.
func (n *Network) pop() searchItem {
	h, top := n.heap, n.heap[0]
	h[0], h = h[len(h)-1], h[:len(h)-1]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if c >= len(h) || !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	n.heap = h
	return top
}
