// Package netem is the packet-level network substrate: queue disciplines,
// rate/delay links, routing nodes, and a control plane for feedback
// messages. Together with package sim it plays the role ns-2 played in the
// paper's evaluation.
package netem

import (
	"math"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Discipline is a queueing discipline attached to a link's output buffer.
// Implementations decide admission (Enqueue returning false means the packet
// is dropped) and service order.
type Discipline interface {
	// Enqueue offers p to the queue; it reports whether p was accepted.
	Enqueue(p *packet.Packet) bool
	// Dequeue removes and returns the next packet to transmit, or nil when
	// the queue is empty.
	Dequeue() *packet.Packet
	// Len reports the number of packets currently waiting.
	Len() int
}

// pktRing is a fixed-capacity FIFO over a power-of-two circular buffer: the
// building block of the bounded disciplines. A sliding []*packet.Packet
// window would reallocate its backing array every capacity-th packet under
// steady backlog; the ring never allocates after construction.
type pktRing struct {
	buf  []*packet.Packet
	head int
	n    int
}

func newPktRing(capacity int) pktRing {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return pktRing{buf: make([]*packet.Packet, size)}
}

func (r *pktRing) push(p *packet.Packet) {
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *pktRing) pop() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// DropTail is a bounded FIFO queue that drops arrivals when full — the
// discipline used at every router in the paper's evaluation (queue size 40
// packets).
type DropTail struct {
	capacity int
	ring     pktRing
}

var _ Discipline = (*DropTail)(nil)

// NewDropTail returns a FIFO queue holding at most capacity packets.
// Capacity must be positive.
func NewDropTail(capacity int) *DropTail {
	if capacity <= 0 {
		capacity = 1
	}
	return &DropTail{capacity: capacity, ring: newPktRing(capacity)}
}

// Capacity reports the maximum number of waiting packets.
func (d *DropTail) Capacity() int { return d.capacity }

// Enqueue implements Discipline.
func (d *DropTail) Enqueue(p *packet.Packet) bool {
	if d.ring.n >= d.capacity {
		return false
	}
	d.ring.push(p)
	return true
}

// Dequeue implements Discipline.
func (d *DropTail) Dequeue() *packet.Packet { return d.ring.pop() }

// Len implements Discipline.
func (d *DropTail) Len() int { return d.ring.n }

// REDConfig parameterizes a RED queue (Floyd & Jacobson 1993). RED is
// provided as an alternative AQM for the ablation that shows Corelite's
// feedback is "independent of the scheduling discipline at the core router"
// (paper §2.2).
type REDConfig struct {
	// Capacity is the physical buffer size in packets.
	Capacity int
	// MinThresh and MaxThresh are the average-queue thresholds in packets.
	MinThresh float64
	// MaxThresh is the average queue length above which every packet is
	// dropped.
	MaxThresh float64
	// MaxP is the maximum marking probability as the average approaches
	// MaxThresh.
	MaxP float64
	// Weight is the EWMA gain w_q for the average queue estimate.
	Weight float64
	// MeanServiceTime estimates the transmission time of one packet; it is
	// used to age the average across idle periods.
	MeanServiceTime time.Duration
}

// DefaultREDConfig returns the classic parameterization scaled to a buffer
// of capacity packets: min = capacity/8 (at least 1), max = 3*min,
// maxP = 0.02, w_q = 0.002.
func DefaultREDConfig(capacity int, meanService time.Duration) REDConfig {
	minTh := float64(capacity) / 8
	if minTh < 1 {
		minTh = 1
	}
	return REDConfig{
		Capacity:        capacity,
		MinThresh:       minTh,
		MaxThresh:       3 * minTh,
		MaxP:            0.02,
		Weight:          0.002,
		MeanServiceTime: meanService,
	}
}

// RED is a Random Early Detection queue.
type RED struct {
	cfg       REDConfig
	now       func() time.Duration
	rng       *sim.RNG
	ring      pktRing
	avg       float64
	count     int // packets since last early drop
	idleSince time.Duration
	idle      bool
	// EarlyDrops counts probabilistic (non-overflow) drops, for tests and
	// metrics.
	EarlyDrops int
}

var _ Discipline = (*RED)(nil)

// NewRED returns a RED queue. now supplies the virtual clock (used to age
// the average over idle periods) and rng the drop coin-flips.
func NewRED(cfg REDConfig, now func() time.Duration, rng *sim.RNG) *RED {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	return &RED{cfg: cfg, now: now, rng: rng, idle: true, ring: newPktRing(cfg.Capacity)}
}

// Avg reports the current EWMA average queue length estimate.
func (r *RED) Avg() float64 { return r.avg }

// Enqueue implements Discipline.
func (r *RED) Enqueue(p *packet.Packet) bool {
	r.updateAvg()
	switch {
	case r.avg >= r.cfg.MaxThresh:
		r.count = 0
		r.EarlyDrops++
		return false
	case r.avg >= r.cfg.MinThresh:
		r.count++
		pb := r.cfg.MaxP * (r.avg - r.cfg.MinThresh) / (r.cfg.MaxThresh - r.cfg.MinThresh)
		pa := pb / math.Max(1e-9, 1-float64(float64(r.count)*pb))
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if r.rng.Bernoulli(pa) {
			r.count = 0
			r.EarlyDrops++
			return false
		}
	default:
		r.count = -1
	}
	if r.ring.n >= r.cfg.Capacity {
		return false
	}
	r.ring.push(p)
	r.idle = false
	return true
}

// Dequeue implements Discipline.
func (r *RED) Dequeue() *packet.Packet {
	p := r.ring.pop()
	if p != nil && r.ring.n == 0 {
		r.idle = true
		r.idleSince = r.now()
	}
	return p
}

// Len implements Discipline.
func (r *RED) Len() int { return r.ring.n }

func (r *RED) updateAvg() {
	if r.idle && r.cfg.MeanServiceTime > 0 {
		// Age the average across the idle period as if m small packets
		// had been serviced (Floyd & Jacobson eq. 3).
		m := float64(r.now()-r.idleSince) / float64(r.cfg.MeanServiceTime)
		if m > 0 {
			r.avg *= math.Pow(1-r.cfg.Weight, m)
		}
		r.idle = false
	}
	r.avg = float64((1-r.cfg.Weight)*r.avg) + float64(r.cfg.Weight*float64(r.ring.n))
}
