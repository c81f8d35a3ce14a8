package netem

import (
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// LinkStats aggregates per-link counters.
type LinkStats struct {
	// Enqueued counts packets accepted into the output queue.
	Enqueued int64
	// Transmitted counts packets fully serviced onto the wire.
	Transmitted int64
	// Arrived counts packets that completed propagation and were handed to
	// the far node. Enqueued − Arrived is the number of packets the link
	// currently holds (queued, in service, or propagating), the per-link
	// term of the netem conservation invariant (see NetStats).
	Arrived int64
	// EnqueuedBytes / ArrivedBytes are the byte-level counterparts of
	// Enqueued / Arrived, for byte conservation.
	EnqueuedBytes int64
	ArrivedBytes  int64
	// DroppedOverflow counts packets rejected by the discipline (buffer
	// overflow or AQM early drop).
	DroppedOverflow int64
}

// InFlight reports the packets the link currently holds: waiting in the
// queue, occupying the transmitter, or propagating toward the far node.
func (s LinkStats) InFlight() int64 { return s.Enqueued - s.Arrived }

// InFlightBytes reports the bytes the link currently holds.
func (s LinkStats) InFlightBytes() int64 { return s.EnqueuedBytes - s.ArrivedBytes }

// Link is a unidirectional link with an output queue at the sending node, a
// fixed transmission rate, and a fixed propagation delay. Its service model
// matches ns-2's SimpleLink: one packet in transmission at a time; a packet
// of S bytes occupies the transmitter for S·8/rate seconds and arrives at
// the far end a further Delay later.
type Link struct {
	name    string
	from    *Node
	to      *Node
	rateBps float64
	delay   time.Duration

	queue   Discipline
	monitor *QueueMonitor
	net     *Network
	busy    bool

	// inService is the packet currently occupying the transmitter; the
	// service-completion timer reads it instead of closing over the packet.
	inService *packet.Packet
	// id is the link's index in Network.links: the arg the service-completion
	// handler is scheduled with.
	id uint32
	// port is the link's index among its sending node's links.
	port int
	// forwarder is the sending node's, kept here so that forwarding a
	// packet in transit touches the link and not the node.
	forwarder Forwarder
	// svcDefault caches serviceTime for the paper's fixed
	// packet.DefaultSizeBytes packet — the size every evaluation packet has —
	// so the hot path skips the float division.
	svcDefault time.Duration
	// waitHist records per-packet queueing delay (enqueue to start of
	// service, simulated seconds). Nil unless observability is attached,
	// and the enqueue/dequeue path branches on it so the detached hot path
	// pays one nil check.
	waitHist *obs.Histogram

	stats LinkStats
}

// Name reports the link's identifier ("from->to").
func (l *Link) Name() string { return l.name }

// ID reports the link's dense index in creation order (its position in
// Network.Links): a key for per-link state that needs no name lookup.
func (l *Link) ID() int { return int(l.id) }

// Port reports the link's index among its sending node's links, in
// creation order: a dense key for per-link state a node's forwarder keeps.
func (l *Link) Port() int { return l.port }

// From reports the sending node.
func (l *Link) From() *Node { return l.from }

// To reports the receiving node.
func (l *Link) To() *Node { return l.to }

// RateBps reports the transmission rate in bits per second.
func (l *Link) RateBps() float64 { return l.rateBps }

// Delay reports the propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// Queue exposes the discipline (read-mostly; used by tests and AQM metrics).
func (l *Link) Queue() Discipline { return l.queue }

// Monitor exposes the time-averaged queue monitor Corelite cores read.
func (l *Link) Monitor() *QueueMonitor { return l.monitor }

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Busy reports whether a packet currently occupies the transmitter.
func (l *Link) Busy() bool { return l.busy }

// PacketsPerSecond reports the service rate for packets of size bytes.
func (l *Link) PacketsPerSecond(sizeBytes int) float64 {
	if sizeBytes <= 0 {
		return 0
	}
	return l.rateBps / (8 * float64(sizeBytes))
}

// registerObs publishes the link's instantaneous queue length as a
// function-backed gauge: the queue is read only at sampling instants, so the
// enqueue/dequeue path is untouched.
func (l *Link) registerObs(reg *obs.Registry) {
	reg.GaugeFunc(obs.PrefixQueue+l.name, func() float64 {
		return float64(l.queue.Len())
	})
	l.waitHist = reg.Histogram(obs.PrefixWait+l.name, "s")
}

// serviceTime is the time the transmitter is occupied by p. The common
// fixed-size evaluation packet hits the precomputed per-link duration; other
// sizes fall back to the float path.
func (l *Link) serviceTime(p *packet.Packet) time.Duration {
	if p.SizeBytes == packet.DefaultSizeBytes {
		return l.svcDefault
	}
	return l.serviceTimeFor(p.SizeBytes)
}

// serviceTimeFor computes the transmission time for a packet of sizeBytes.
func (l *Link) serviceTimeFor(sizeBytes int) time.Duration {
	seconds := float64(sizeBytes) * 8 / l.rateBps
	return time.Duration(seconds * float64(time.Second))
}

// send offers p to the link. If the discipline rejects it the packet is
// dropped and the network's drop listeners fire.
func (l *Link) send(p *packet.Packet) {
	now := l.net.sched.Now()
	if !l.queue.Enqueue(p) {
		l.stats.DroppedOverflow++
		l.net.notifyDrop(Drop{Packet: p, Node: l.from, Link: l, Reason: DropOverflow, At: now})
		return
	}
	l.stats.Enqueued++
	l.stats.EnqueuedBytes += int64(p.SizeBytes)
	if l.waitHist != nil {
		p.EnqueuedAt = now
	}
	l.net.trace(TraceEvent{At: now, Kind: EventEnqueue, Where: l.name, Packet: p})
	l.monitor.Observe(now, l.queue.Len())
	if !l.busy {
		l.startService()
	}
}

// startService pulls the head-of-line packet into the transmitter and
// schedules its service completion, or marks the link idle when the queue is
// empty. It neither allocates nor writes a pointer into the scheduler: the
// completion is a registered handler posted with the link's own index.
func (l *Link) startService() {
	p := l.queue.Dequeue()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.inService = p
	now := l.net.sched.Now()
	if l.waitHist != nil {
		l.waitHist.Observe((now - p.EnqueuedAt).Seconds())
	}
	l.net.trace(TraceEvent{At: now, Kind: EventDequeue, Where: l.name, Packet: p})
	l.monitor.Observe(now, l.queue.Len())
	l.net.sched.PostHandler(l.serviceTime(p), l.net.txHid, l.id)
}

// fireTx completes a link's in-service transmission: the packet starts
// propagating toward the far node (in a pooled propagation-timer slot) and
// the transmitter is immediately free for the next packet.
func (n *Network) fireTx(arg uint32) {
	l := n.links[arg]
	n.sched.MarkHandler(sim.KindLinkTx)
	p := l.inService
	l.inService = nil
	l.stats.Transmitted++
	ti := n.getPropTimer()
	n.propTimers[ti] = p
	n.sched.PostHandler(l.delay, n.propHid, ti)
	l.startService()
}

// fireProp hands a propagated packet to the far node of the link its route
// put it on, and recycles the timer slot.
func (n *Network) fireProp(arg uint32) {
	p := n.propTimers[arg]
	n.sched.MarkHandler(sim.KindLinkProp)
	n.propTimers[arg] = nil
	n.putPropTimer(arg)
	l := n.hops[p.Route+p.Hop-1]
	l.stats.Arrived++
	l.stats.ArrivedBytes += int64(p.SizeBytes)
	n.forward(l.to, p)
}
