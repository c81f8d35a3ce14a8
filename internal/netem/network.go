package netem

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// DropReason classifies why a packet was discarded.
type DropReason int

// Drop reasons.
const (
	// DropOverflow: the output queue (or its AQM) rejected the packet.
	DropOverflow DropReason = iota + 1
	// DropPolicy: a Forwarder (e.g. CSFQ's probabilistic dropper)
	// discarded the packet.
	DropPolicy
	// DropNoRoute: the node had no route to the destination.
	DropNoRoute
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropOverflow:
		return "overflow"
	case DropPolicy:
		return "policy"
	case DropNoRoute:
		return "no-route"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// Drop describes a discarded packet.
type Drop struct {
	Packet *packet.Packet
	// Node is where the drop occurred.
	Node string
	// Link is the intended output link (nil for routing failures).
	Link   *Link
	Reason DropReason
	At     time.Duration
}

// NetStats aggregates network-wide conservation counters: everything that
// entered the cloud (Inject), left it at its destination (delivery to the
// addressed node's App), or was discarded. At any event boundary
//
//	Injected == Delivered + Dropped + Σ_links (Enqueued − Arrived)
//
// holds exactly — node processing is synchronous, so a packet in transit is
// held by exactly one link (queued, in service, or propagating). The
// invariant checker (internal/invariant) enforces this equality.
type NetStats struct {
	// Injected / Delivered / Dropped count packets.
	Injected  int64
	Delivered int64
	Dropped   int64
	// InjectedBytes / DeliveredBytes / DroppedBytes count packet payloads.
	InjectedBytes  int64
	DeliveredBytes int64
	DroppedBytes   int64
	// InjectedMarkers / DeliveredMarkers / DroppedMarkers count packets
	// carrying a piggybacked Corelite marker. Core routers read markers
	// without detaching them, so a marked packet that survives to its
	// egress is counted in DeliveredMarkers.
	InjectedMarkers  int64
	DeliveredMarkers int64
	DroppedMarkers   int64
}

// Network is a simulated network cloud: nodes, links, static shortest-path
// routes, and a latency-faithful control plane for feedback messages.
type Network struct {
	sched  *sim.Scheduler
	nodes  map[string]*Node
	order  []string // node names in creation order, for determinism
	links  []*Link
	onDrop []func(Drop)
	stats  NetStats

	// pathDelay caches propagation latency between node pairs, filled by
	// ComputeRoutes.
	pathDelay map[[2]string]time.Duration

	tracer Tracer

	// pool recycles packets (and their piggybacked markers) per run:
	// sources draw from it and the network releases at the sink and on
	// every drop. See packet.Pool for the ownership rules.
	pool *packet.Pool
	// Propagation-timer pool: records live in an index-addressed slice so
	// the scheduler entry for an in-flight packet is just (handler id,
	// record index) — nothing the garbage collector has to chase.
	propTimers []propTimer
	propFree   []uint32
	propHid    sim.HandlerID
	// txHid fires service completions with the link index as arg.
	txHid sim.HandlerID

	obs *obs.Registry
	// dropCtr is indexed by DropReason; nil entries make counting a no-op,
	// so the drop path never branches on whether observability is attached.
	dropCtr [DropNoRoute + 1]*obs.Counter
}

// New returns an empty network driven by sched.
func New(sched *sim.Scheduler) *Network {
	n := &Network{
		sched:     sched,
		nodes:     make(map[string]*Node),
		pathDelay: make(map[[2]string]time.Duration),
		pool:      packet.NewPool(),
	}
	n.propHid = sched.RegisterHandler(n.fireProp)
	n.txHid = sched.RegisterHandler(n.fireTx)
	return n
}

// Scheduler exposes the simulation scheduler driving this network.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// PacketPool exposes the per-run packet free list. Traffic sources allocate
// from it so that the network can recycle every packet it delivers or drops;
// allocating elsewhere (plain packet.New) is always safe — foreign packets
// are simply left to the garbage collector on release.
func (n *Network) PacketPool() *packet.Pool { return n.pool }

// getPropTimer claims a propagation-timer record, returning its index.
func (n *Network) getPropTimer() uint32 {
	if k := len(n.propFree); k > 0 {
		i := n.propFree[k-1]
		n.propFree = n.propFree[:k-1]
		return i
	}
	n.propTimers = append(n.propTimers, propTimer{})
	return uint32(len(n.propTimers) - 1)
}

// putPropTimer returns a drained record to the free list.
func (n *Network) putPropTimer(i uint32) { n.propFree = append(n.propFree, i) }

// Now reports the current virtual time.
func (n *Network) Now() time.Duration { return n.sched.Now() }

// AddNode creates a node with the given unique name.
func (n *Network) AddNode(name string) (*Node, error) {
	if _, exists := n.nodes[name]; exists {
		return nil, fmt.Errorf("netem: duplicate node %q", name)
	}
	node := &Node{
		name:    name,
		net:     n,
		links:   make(map[string]*Link),
		nextHop: make(map[string]string),
	}
	n.nodes[name] = node
	n.order = append(n.order, name)
	node.id = uint32(len(n.order)) // 1-based: 0 marks an unresolved DstID
	return node, nil
}

// Node returns the named node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Nodes returns node names in creation order.
func (n *Network) Nodes() []string {
	out := make([]string, len(n.order))
	copy(out, n.order)
	return out
}

// Links returns all links in creation order.
func (n *Network) Links() []*Link {
	out := make([]*Link, len(n.links))
	copy(out, n.links)
	return out
}

// LinkConfig describes one unidirectional link.
type LinkConfig struct {
	// RateBps is the transmission rate in bits per second.
	RateBps float64
	// Delay is the propagation delay.
	Delay time.Duration
	// Queue is the output discipline; nil defaults to a 40-packet
	// drop-tail queue (the paper's setting).
	Queue Discipline
}

// DefaultQueueCapacity is the paper's router buffer size in packets.
const DefaultQueueCapacity = 40

// AddLink creates a unidirectional link from -> to.
func (n *Network) AddLink(from, to string, cfg LinkConfig) (*Link, error) {
	src, ok := n.nodes[from]
	if !ok {
		return nil, fmt.Errorf("netem: unknown node %q", from)
	}
	dst, ok := n.nodes[to]
	if !ok {
		return nil, fmt.Errorf("netem: unknown node %q", to)
	}
	if _, dup := src.links[to]; dup {
		return nil, fmt.Errorf("netem: duplicate link %s->%s", from, to)
	}
	if cfg.RateBps <= 0 {
		return nil, fmt.Errorf("netem: link %s->%s needs a positive rate", from, to)
	}
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("netem: link %s->%s has negative delay", from, to)
	}
	q := cfg.Queue
	if q == nil {
		q = NewDropTail(DefaultQueueCapacity)
	}
	l := &Link{
		name:    from + "->" + to,
		from:    src,
		to:      dst,
		rateBps: cfg.RateBps,
		delay:   cfg.Delay,
		queue:   q,
		monitor: NewQueueMonitor(n.sched.Now()),
		net:     n,
	}
	l.id = uint32(len(n.links))
	l.svcDefault = l.serviceTimeFor(packet.DefaultSizeBytes)
	src.links[to] = l
	n.links = append(n.links, l)
	if n.obs != nil {
		l.registerObs(n.obs)
	}
	return l, nil
}

// Connect creates a duplex pair of links between a and b with identical
// parameters. Queue disciplines are not shared: when cfg.Queue is non-nil it
// is used for a->b only and b->a gets a default drop-tail queue; pass nil to
// give both directions default queues.
func (n *Network) Connect(a, b string, cfg LinkConfig) (ab, ba *Link, err error) {
	ab, err = n.AddLink(a, b, cfg)
	if err != nil {
		return nil, nil, err
	}
	back := cfg
	back.Queue = nil
	ba, err = n.AddLink(b, a, back)
	if err != nil {
		return nil, nil, err
	}
	return ab, ba, nil
}

// OnDrop registers fn to be invoked for every dropped packet.
func (n *Network) OnDrop(fn func(Drop)) { n.onDrop = append(n.onDrop, fn) }

// SetObs attaches an observability registry: per-reason drop counters and a
// queue-length gauge per link (links added later register themselves). Call
// it before traffic starts; a nil registry detaches.
func (n *Network) SetObs(reg *obs.Registry) {
	n.obs = reg
	for r := DropOverflow; r <= DropNoRoute; r++ {
		n.dropCtr[r] = reg.Counter(obs.PrefixDrop + r.String())
	}
	for _, l := range n.links {
		l.registerObs(reg)
	}
}

// Obs reports the attached observability registry (nil when detached — the
// nil registry hands out inert instruments, so callers need not check).
func (n *Network) Obs() *obs.Registry { return n.obs }

// Stats returns a copy of the network-wide conservation counters.
func (n *Network) Stats() NetStats { return n.stats }

func (n *Network) notifyDrop(d Drop) {
	n.stats.Dropped++
	n.stats.DroppedBytes += int64(d.Packet.SizeBytes)
	if d.Packet.Marker != nil {
		n.stats.DroppedMarkers++
	}
	where := d.Node
	if d.Link != nil {
		where = d.Link.Name()
	}
	if int(d.Reason) < len(n.dropCtr) {
		n.dropCtr[d.Reason].Inc()
	}
	n.trace(TraceEvent{At: d.At, Kind: EventDrop, Where: where, Packet: d.Packet, Reason: d.Reason})
	for _, fn := range n.onDrop {
		fn(d)
	}
	// Drop listeners run synchronously and must not retain the packet, so
	// the drop point is where ownership returns to the pool.
	n.pool.Put(d.Packet)
}

// ComputeRoutes fills every node's next-hop table with shortest paths
// (weighted by propagation delay, ties broken by hop count then by node
// name for determinism) and caches pairwise path latencies for the control
// plane. It must be called after topology construction and before traffic
// starts; call it again if links are added later.
func (n *Network) ComputeRoutes() error {
	n.pathDelay = make(map[[2]string]time.Duration, len(n.order)*len(n.order))
	for _, src := range n.order {
		dist, firstHop, err := n.dijkstra(src)
		if err != nil {
			return err
		}
		node := n.nodes[src]
		node.nextHop = firstHop
		node.outByID = make([]*Link, len(n.order)+1)
		for dst, hop := range firstHop {
			if l := node.links[hop]; l != nil {
				node.outByID[n.nodes[dst].id] = l
			}
		}
		for dst, d := range dist {
			n.pathDelay[[2]string{src, dst}] = d
		}
	}
	return nil
}

// dijkstra computes, from src, the propagation-latency distance and the
// first hop toward every reachable node.
func (n *Network) dijkstra(src string) (map[string]time.Duration, map[string]string, error) {
	type entry struct {
		dist time.Duration
		hops int
	}
	dist := map[string]entry{src: {}}
	firstHop := make(map[string]string)
	visited := make(map[string]bool)
	for {
		// Select the unvisited node with the smallest (dist, hops, name).
		var cur string
		found := false
		for name, e := range dist {
			if visited[name] {
				continue
			}
			if !found {
				cur, found = name, true
				continue
			}
			c := dist[cur]
			if e.dist < c.dist || (e.dist == c.dist && e.hops < c.hops) ||
				(e.dist == c.dist && e.hops == c.hops && name < cur) {
				cur = name
			}
		}
		if !found {
			break
		}
		visited[cur] = true
		node := n.nodes[cur]
		neighbors := make([]string, 0, len(node.links))
		for next := range node.links {
			neighbors = append(neighbors, next)
		}
		sort.Strings(neighbors)
		for _, next := range neighbors {
			l := node.links[next]
			cand := entry{dist[cur].dist + l.delay, dist[cur].hops + 1}
			old, seen := dist[next]
			if !seen || cand.dist < old.dist || (cand.dist == old.dist && cand.hops < old.hops) {
				dist[next] = cand
				if cur == src {
					firstHop[next] = next
				} else {
					firstHop[next] = firstHop[cur]
				}
			}
		}
	}
	out := make(map[string]time.Duration, len(dist))
	for name, e := range dist {
		out[name] = e.dist
	}
	return out, firstHop, nil
}

// InstallNeighborRoutes fills every node's forwarding state and the
// control-plane latency cache for its direct neighbors only: packets
// addressed to an adjacent node take the connecting link. It is the cheap
// alternative to ComputeRoutes for topologies whose every multi-hop path is
// pinned explicitly with InstallRoute (generated fat-trees route thousands
// of flows without an all-pairs shortest-path pass). Call it after topology
// construction; InstallRoute calls layer multi-hop state on top.
func (n *Network) InstallNeighborRoutes() {
	for _, l := range n.links {
		l.from.nextHop[l.to.name] = l.to.name
		if len(l.from.outByID) < len(n.order)+1 {
			grown := make([]*Link, len(n.order)+1)
			copy(grown, l.from.outByID)
			l.from.outByID = grown
		}
		l.from.outByID[l.to.id] = l
		n.pathDelay[[2]string{l.from.name, l.to.name}] = l.delay
	}
}

// InstallRoute pins the forwarding state for the destination path[len-1]
// along the explicit node sequence path: every earlier node on the path
// forwards packets for that destination to its successor, regardless of
// what ComputeRoutes would have chosen. This is how generated topologies
// realize deterministic ECMP-style path selection — the generator picks a
// core switch per flow and installs the full waypoint chain toward the
// flow's (unique) egress host.
//
// The control-plane latency cache learns every ordered pair along the
// sequence: forward pairs always, reverse pairs whenever the reverse links
// exist (duplex wiring), so feedback from any on-path router back to the
// flow's ingress edge travels with faithful timing even when ComputeRoutes
// never ran. Consecutive nodes must be directly linked in the forward
// direction. Installing a second route toward the same destination
// overwrites the first, so callers keep one pinned flow per egress node.
func (n *Network) InstallRoute(path []string) error {
	if len(path) < 2 {
		return fmt.Errorf("netem: route needs at least two nodes, got %d", len(path))
	}
	hops := make([]*Link, len(path)-1)
	seen := make(map[string]bool, len(path))
	for i, name := range path {
		node := n.nodes[name]
		if node == nil {
			return fmt.Errorf("netem: route references unknown node %q", name)
		}
		if seen[name] {
			return fmt.Errorf("netem: route visits node %q twice", name)
		}
		seen[name] = true
		if i+1 < len(path) {
			l := node.links[path[i+1]]
			if l == nil {
				return fmt.Errorf("netem: route hop %s->%s has no link", name, path[i+1])
			}
			hops[i] = l
		}
	}
	dst := n.nodes[path[len(path)-1]]
	for i := 0; i+1 < len(path); i++ {
		node := n.nodes[path[i]]
		node.nextHop[dst.name] = path[i+1]
		if len(node.outByID) < len(n.order)+1 {
			grown := make([]*Link, len(n.order)+1)
			copy(grown, node.outByID)
			node.outByID = grown
		}
		node.outByID[dst.id] = hops[i]
	}
	// Latency cache: forward pairs from the pinned links, reverse pairs from
	// the reverse links where present.
	for i := 0; i < len(path); i++ {
		fwd := time.Duration(0)
		for j := i + 1; j < len(path); j++ {
			fwd += hops[j-1].delay
			n.pathDelay[[2]string{path[i], path[j]}] = fwd
		}
		rev := time.Duration(0)
		for j := i - 1; j >= 0; j-- {
			back := n.nodes[path[j+1]].links[path[j]]
			if back == nil {
				break
			}
			rev += back.delay
			n.pathDelay[[2]string{path[i], path[j]}] = rev
		}
	}
	return nil
}

// Path reports the routed node sequence from -> ... -> to (inclusive). It
// requires ComputeRoutes to have run.
func (n *Network) Path(from, to string) ([]string, error) {
	if n.nodes[from] == nil {
		return nil, fmt.Errorf("netem: unknown node %q", from)
	}
	if n.nodes[to] == nil {
		return nil, fmt.Errorf("netem: unknown node %q", to)
	}
	path := []string{from}
	cur := from
	for cur != to {
		next, ok := n.nodes[cur].nextHop[to]
		if !ok {
			return nil, fmt.Errorf("netem: no path %s -> %s (did you call ComputeRoutes?)", from, to)
		}
		path = append(path, next)
		cur = next
		if len(path) > len(n.nodes)+1 {
			return nil, fmt.Errorf("netem: routing loop on path %s -> %s", from, to)
		}
	}
	return path, nil
}

// PathDelay reports the one-way propagation latency between two nodes along
// the routed path. It is used by the control plane to deliver feedback and
// loss notifications with faithful timing.
func (n *Network) PathDelay(from, to string) (time.Duration, error) {
	d, ok := n.pathDelay[[2]string{from, to}]
	if !ok {
		return 0, fmt.Errorf("netem: no path %s -> %s (did you call ComputeRoutes?)", from, to)
	}
	return d, nil
}

// SendControl delivers fn at the destination after the routed one-way
// propagation latency from -> to. Control messages (Corelite marker
// feedback, CSFQ loss notifications) are tiny compared to 1KB data packets,
// so they are modelled as consuming no data-plane bandwidth while
// preserving exactly the path delay — see DESIGN.md §2.
func (n *Network) SendControl(from, to string, fn func()) error {
	d, err := n.PathDelay(from, to)
	if err != nil {
		return err
	}
	if n.sched.Profiler() != nil {
		// Attribute the delivery to the control-plane handler kind. The
		// wrapper allocates, so it exists only when the event-loop profiler
		// is attached; detached runs schedule fn directly.
		inner := fn
		fn = func() {
			n.sched.MarkHandler(sim.KindControl)
			inner()
		}
	}
	n.sched.MustAfter(d, fn)
	return nil
}
