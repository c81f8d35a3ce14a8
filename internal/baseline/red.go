// Package baseline holds the queue disciplines the paper sets Corelite
// against: RED, the AQM of the drop-tail ablation (§2.2), FRED, the
// per-buffered-flow design of the related work (§5), and WFQ, the
// per-flow-state ideal (§1). Each satisfies netem.Discipline, so a test can
// hang one on any link. Only tests import this package: no program runs a
// baseline, and the figures use drop-tail queues.
package baseline

import (
	"math"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

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
	queue     []*packet.Packet
	avg       float64
	count     int // packets since last early drop
	idleSince time.Duration
	idle      bool
	// EarlyDrops counts probabilistic (non-overflow) drops, for tests and
	// metrics.
	EarlyDrops int
}

// NewRED returns a RED queue. now supplies the virtual clock (used to age
// the average over idle periods) and rng the drop coin-flips.
func NewRED(cfg REDConfig, now func() time.Duration, rng *sim.RNG) *RED {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	return &RED{cfg: cfg, now: now, rng: rng, idle: true}
}

// Avg reports the current EWMA average queue length estimate.
func (r *RED) Avg() float64 { return r.avg }

// Enqueue implements netem.Discipline.
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
	if len(r.queue) >= r.cfg.Capacity {
		return false
	}
	r.queue = append(r.queue, p)
	r.idle = false
	return true
}

// Dequeue implements netem.Discipline.
func (r *RED) Dequeue() *packet.Packet {
	if len(r.queue) == 0 {
		return nil
	}
	p := r.queue[0]
	r.queue[0] = nil
	r.queue = r.queue[1:]
	if len(r.queue) == 0 {
		r.queue = r.queue[:0:cap(r.queue)]
		r.idle = true
		r.idleSince = r.now()
	}
	return p
}

// Len implements netem.Discipline.
func (r *RED) Len() int { return len(r.queue) }

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
	r.avg = float64((1-r.cfg.Weight)*r.avg) + float64(r.cfg.Weight*float64(len(r.queue)))
}
