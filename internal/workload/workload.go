// Package workload provides the traffic-generation building blocks shared by
// both schemes: the per-flow token-bucket pacer (the paper's flows "always
// have packets to send", i.e. backlogged sources shaped to the allowed rate
// b_g(f); host traffic is queued and released at the same rate) and
// activity schedules for the dynamic-flow scenarios.
package workload

import (
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// defaultQueueCap is a shaped pacer's host-queue bound when the config
// leaves it unset.
const defaultQueueCap = 64

// Pacer is one flow's token-bucket packet pacer: it releases at most one
// packet per 1/rate, and a rate change takes effect at once (the next
// release moves to lastRelease + 1/rate, clamped to now). The edge router
// owns it: the rate tracks the flow's allowed transmission rate b_g(f), and
// Decorate lets the owning scheme stamp outgoing packets (Corelite marker
// piggybacking, CSFQ labels).
//
// A pacer's packets come from one of two places. A minted pacer models a
// backlogged flow and makes its own packets. A shaped pacer releases the
// packets end hosts hand to Offer from a bounded FIFO and drops on overflow
// — "drop[ping] packets from ill behaved flows at the edges of the network"
// (paper §6).
type Pacer struct {
	sched  *sim.Scheduler
	inject func(*packet.Packet)
	pool   *packet.Pool

	flow      packet.FlowID
	dst       string
	sizeBytes int

	// Decorate, when non-nil, is called on every packet immediately
	// before injection, so stamps reflect the rate at release time.
	Decorate func(*packet.Packet)
	// OnDrop, when non-nil, observes host packets dropped by a shaped
	// pacer.
	OnDrop func(*packet.Packet)

	shaped   bool
	capacity int
	queue    []*packet.Packet

	rate     float64 // packets per second; 0 pauses release
	active   bool
	sent     int64
	dropped  int64
	lastEmit time.Duration
	emitted  bool // whether lastEmit is meaningful

	// hid is the pacer's registered release handler; gen is the generation
	// its pending release was posted with, and armed says one is pending.
	// Releases ride the scheduler's pointer-free registered tier — nothing
	// is allocated per packet — so instead of cancelling a superseded
	// release eagerly, SetRate/Stop bump gen and the stale event fires as
	// a no-op.
	hid   sim.HandlerID
	gen   uint32
	armed bool
}

// PacerConfig parameterizes a Pacer.
type PacerConfig struct {
	Flow packet.FlowID
	// Dst is the egress node minted packets are addressed to.
	Dst string
	// SizeBytes is the minted packet size; 0 defaults to the paper's 1 KB.
	SizeBytes int
	// Inject delivers a released packet into the network (typically the
	// ingress node's Inject method).
	Inject func(*packet.Packet)
	// Pool, when non-nil, recycles minted packets (typically the network's
	// per-run pool); nil falls back to plain allocation.
	Pool *packet.Pool
	// Shaped makes the pacer release packets handed to Offer instead of
	// minting its own.
	Shaped bool
	// Capacity bounds a shaped pacer's queue in packets (<= 0 defaults to
	// 64).
	Capacity int
}

// NewPacer returns an inactive pacer; call Start.
func NewPacer(sched *sim.Scheduler, cfg PacerConfig) *Pacer {
	p := &Pacer{
		sched:     sched,
		inject:    cfg.Inject,
		pool:      cfg.Pool,
		flow:      cfg.Flow,
		dst:       cfg.Dst,
		sizeBytes: cfg.SizeBytes,
		shaped:    cfg.Shaped,
	}
	if p.sizeBytes <= 0 {
		p.sizeBytes = packet.DefaultSizeBytes
	}
	if p.shaped {
		p.capacity = cfg.Capacity
		if p.capacity <= 0 {
			p.capacity = defaultQueueCap
		}
		p.queue = make([]*packet.Packet, 0, p.capacity)
	}
	p.hid = sched.RegisterHandler(p.release)
	return p
}

// Flow reports the pacer's flow id.
func (p *Pacer) Flow() packet.FlowID { return p.flow }

// Rate reports the current release rate in packets per second.
func (p *Pacer) Rate() float64 { return p.rate }

// Active reports whether the pacer is started.
func (p *Pacer) Active() bool { return p.active }

// Shaped reports whether the pacer releases host packets (see Offer).
func (p *Pacer) Shaped() bool { return p.shaped }

// Sent reports the packets released into the network so far.
func (p *Pacer) Sent() int64 { return p.sent }

// QueueLen reports the host packets currently waiting.
func (p *Pacer) QueueLen() int { return len(p.queue) }

// Dropped reports the host packets dropped (queue overflow, offers while
// stopped, or backlog discarded by Stop).
func (p *Pacer) Dropped() int64 { return p.dropped }

// Start activates the pacer at the given rate. A minted pacer releases its
// first packet immediately (the flow is backlogged).
func (p *Pacer) Start(rate float64) {
	p.active = true
	p.emitted = false
	p.SetRate(rate)
}

// Stop deactivates the pacer, supersedes any pending release and discards
// the host backlog.
func (p *Pacer) Stop() {
	p.active = false
	p.supersede()
	for _, q := range p.queue {
		p.drop(q)
	}
	p.queue = p.queue[:0]
}

// Offer enqueues a host packet for paced release. It reports false (and
// counts a drop) when the pacer is stopped, minted, or its queue is full.
func (p *Pacer) Offer(q *packet.Packet) bool {
	if !p.active || len(p.queue) >= p.capacity {
		p.drop(q)
		return false
	}
	p.queue = append(p.queue, q)
	p.arm()
	return true
}

// SetRate changes the release rate, token-bucket style: the next release is
// rescheduled to lastRelease + 1/rate (clamped to now). A zero or negative
// rate pauses release until the next positive SetRate.
func (p *Pacer) SetRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	p.rate = rate
	if !p.active {
		return
	}
	p.supersede()
	p.arm()
}

// supersede turns the pending release, if any, into a stale no-op.
func (p *Pacer) supersede() {
	p.gen++
	p.armed = false
}

// arm posts the next release when none is pending and there is a positive
// rate and a packet to send.
func (p *Pacer) arm() {
	if p.armed || !p.active || p.rate <= 0 || (p.shaped && len(p.queue) == 0) {
		return
	}
	next := p.sched.Now()
	if p.emitted {
		if t := p.lastEmit + time.Duration(float64(time.Second)/p.rate); t > next {
			next = t
		}
	}
	p.sched.PostHandlerAt(next, p.hid, p.gen)
	p.armed = true
}

func (p *Pacer) drop(q *packet.Packet) {
	p.dropped++
	if p.OnDrop != nil {
		p.OnDrop(q)
	}
}

// release is the registered release handler; gen is the generation the
// release was posted with.
func (p *Pacer) release(gen uint32) {
	p.sched.MarkHandler(sim.KindSource)
	if gen != p.gen {
		return // superseded by a SetRate/Stop after posting
	}
	p.armed = false
	now := p.sched.Now()
	var q *packet.Packet
	if p.shaped {
		q = p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
	} else {
		q = p.pool.Get(p.flow, p.dst, p.sent, now)
		q.SizeBytes = p.sizeBytes
	}
	p.sent++
	p.lastEmit = now
	p.emitted = true
	if p.Decorate != nil {
		p.Decorate(q)
	}
	p.inject(q)
	p.arm()
}

// Interval is a half-open activity window [Start, Stop). A zero Stop means
// "until the end of the simulation".
type Interval struct {
	Start time.Duration
	Stop  time.Duration
}

// Schedule is a flow's list of activity windows in increasing order.
type Schedule []Interval

// Always returns a schedule active from t=0 for the whole run.
func Always() Schedule { return Schedule{{}} }

// Window returns a single-interval schedule.
func Window(start, stop time.Duration) Schedule {
	return Schedule{{Start: start, Stop: stop}}
}

// ActiveAt reports whether the schedule is active at time t, given the run
// duration (used to resolve open-ended intervals).
func (s Schedule) ActiveAt(t, duration time.Duration) bool {
	for _, iv := range s {
		stop := iv.Stop
		if stop == 0 {
			stop = duration
		}
		if t >= iv.Start && t < stop {
			return true
		}
	}
	return false
}
