package netem

import (
	"fmt"
	"slices"
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
	Node *Node
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

// Network is a simulated network cloud: nodes, links, per-flow link-path
// routes (see routing), and a latency-faithful control plane for feedback
// messages (see control).
type Network struct {
	sched *sim.Scheduler
	nodes map[string]*Node
	byID  []*Node // nodes by dense id, which is creation order
	links []*Link
	// linkAt maps (from, to) node ids to the link between them.
	linkAt map[uint64]*Link
	onDrop []func(Drop)
	stats  NetStats

	routing
	control

	tracer Tracer

	// pool recycles packets (and their piggybacked markers) per run:
	// sources draw from it and the network releases at the sink and on
	// every drop. See packet.Pool for the ownership rules.
	pool *packet.Pool
	// Propagation-timer pool: each propagating packet sits in an
	// index-addressed slot, so its scheduler entry is just (handler id,
	// slot) — nothing the garbage collector has to chase. The packet's
	// route names the link it is on.
	propTimers []*packet.Packet
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
		sched:   sched,
		nodes:   make(map[string]*Node),
		linkAt:  make(map[uint64]*Link),
		routing: routing{hops: []*Link{nil}},
		pool:    packet.NewPool(),
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
	n.propTimers = append(n.propTimers, nil)
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
	node := &Node{name: name, id: uint32(len(n.byID)), net: n}
	n.nodes[name] = node
	n.byID = append(n.byID, node)
	n.forget()
	return node, nil
}

// Node returns the named node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return slices.Clone(n.links) }

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
	if _, dup := n.linkAt[pairKey(src, dst)]; dup {
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
	l.id, l.port, l.forwarder = uint32(len(n.links)), len(src.out), src.forwarder
	l.svcDefault = l.serviceTimeFor(packet.DefaultSizeBytes)
	n.linkAt[pairKey(src, dst)] = l
	src.out = append(src.out, l)
	n.links = append(n.links, l)
	n.forget()
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
	where := d.Node.name
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
