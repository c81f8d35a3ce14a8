package netem

import (
	"math"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// FREDConfig parameterizes a FRED queue (Lin & Morris, SIGCOMM'97 —
// "Flow Random Early Drop"). FRED extends RED with per-active-flow
// accounting to approximate fair buffer sharing; the Corelite paper's
// related-work section (§5) positions it as the state-keeping alternative
// to core-stateless schemes: "it maintains state for all flows that have
// at least one packet in the buffer".
type FREDConfig struct {
	// Capacity is the physical buffer in packets.
	Capacity int
	// MinThresh / MaxThresh are the average-queue thresholds (packets).
	MinThresh float64
	MaxThresh float64
	// MaxP is the maximum early-drop probability.
	MaxP float64
	// Weight is the EWMA gain for the average queue estimate.
	Weight float64
	// MinQ is the per-flow buffer count below which a flow is never
	// penalized (protects fragile flows; paper uses 2–4).
	MinQ int
	// MeanServiceTime ages the average across idle periods.
	MeanServiceTime time.Duration
}

// DefaultFREDConfig mirrors DefaultREDConfig with MinQ = 2.
func DefaultFREDConfig(capacity int, meanService time.Duration) FREDConfig {
	red := DefaultREDConfig(capacity, meanService)
	return FREDConfig{
		Capacity:        red.Capacity,
		MinThresh:       red.MinThresh,
		MaxThresh:       red.MaxThresh,
		MaxP:            red.MaxP,
		Weight:          red.Weight,
		MinQ:            2,
		MeanServiceTime: red.MeanServiceTime,
	}
}

// FRED is a Flow Random Early Drop queue. It keeps state only for flows
// that currently have packets buffered (qlen per active flow plus a
// "strike" count for flows that repeatedly overrun their share), enforcing
// approximately fair per-flow buffer occupancy.
type FRED struct {
	cfg FREDConfig
	now func() time.Duration
	rng *sim.RNG

	queue []*packet.Packet
	avg   float64
	count int
	idle  bool
	since time.Duration

	flows map[packet.FlowID]*fredFlow
	// strikes survives a flow's departure from the buffer per the FRED
	// design ("it is kept for flows that have recently had packets").
	strikes map[packet.FlowID]int

	// Stats.
	EarlyDrops  int
	UnfairDrops int
}

type fredFlow struct {
	qlen int
}

var _ Discipline = (*FRED)(nil)

// NewFRED returns a FRED queue driven by the given clock and random
// stream.
func NewFRED(cfg FREDConfig, now func() time.Duration, rng *sim.RNG) *FRED {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.MinQ <= 0 {
		cfg.MinQ = 2
	}
	return &FRED{
		cfg:     cfg,
		now:     now,
		rng:     rng,
		idle:    true,
		flows:   make(map[packet.FlowID]*fredFlow),
		strikes: make(map[packet.FlowID]int),
	}
}

// ActiveFlows reports the number of flows with packets currently buffered
// (the per-flow state FRED must maintain — the cost the Corelite paper
// calls out).
func (f *FRED) ActiveFlows() int { return len(f.flows) }

// Avg reports the EWMA average queue length.
func (f *FRED) Avg() float64 { return f.avg }

// avgcq is the average per-active-flow buffer occupancy.
func (f *FRED) avgcq() float64 {
	n := len(f.flows)
	if n == 0 {
		return 1
	}
	cq := f.avg / float64(n)
	if cq < 1 {
		cq = 1
	}
	return cq
}

// Enqueue implements Discipline.
func (f *FRED) Enqueue(p *packet.Packet) bool {
	f.updateAvg()
	st, active := f.flows[p.Flow]
	if !active {
		st = &fredFlow{}
	}
	avgcq := f.avgcq()
	maxq := f.cfg.MinThresh

	// Penalize flows that overrun their fair buffer share.
	if float64(st.qlen) >= maxq ||
		(f.avg >= f.cfg.MaxThresh && float64(st.qlen) > 2*avgcq) ||
		(float64(st.qlen) >= avgcq && f.strikes[p.Flow] > 1) {
		f.strikes[p.Flow]++
		f.UnfairDrops++
		return false
	}

	switch {
	case f.avg >= f.cfg.MinThresh && f.avg < f.cfg.MaxThresh:
		// RED-like probabilistic drop, but only for flows at or above
		// their share; small flows (qlen < MinQ) are protected.
		f.count++
		if st.qlen >= f.cfg.MinQ && float64(st.qlen) >= avgcq {
			pb := f.cfg.MaxP * (f.avg - f.cfg.MinThresh) / (f.cfg.MaxThresh - f.cfg.MinThresh)
			pa := pb / math.Max(1e-9, 1-float64(float64(f.count)*pb))
			if pa < 0 || pa > 1 {
				pa = 1
			}
			if f.rng.Bernoulli(pa) {
				f.count = 0
				f.EarlyDrops++
				return false
			}
		}
	case f.avg >= f.cfg.MaxThresh:
		// Above max: only below-share flows may still enter.
		if float64(st.qlen) >= avgcq {
			f.strikes[p.Flow]++
			f.EarlyDrops++
			return false
		}
	}

	if len(f.queue) >= f.cfg.Capacity {
		return false
	}
	f.queue = append(f.queue, p)
	if !active {
		f.flows[p.Flow] = st
	}
	st.qlen++
	f.idle = false
	return true
}

// Dequeue implements Discipline.
func (f *FRED) Dequeue() *packet.Packet {
	if len(f.queue) == 0 {
		return nil
	}
	p := f.queue[0]
	f.queue[0] = nil
	f.queue = f.queue[1:]
	if st, ok := f.flows[p.Flow]; ok {
		st.qlen--
		if st.qlen <= 0 {
			delete(f.flows, p.Flow)
		}
	}
	if len(f.queue) == 0 {
		f.queue = f.queue[:0:cap(f.queue)]
		f.idle = true
		f.since = f.now()
	}
	return p
}

// Len implements Discipline.
func (f *FRED) Len() int { return len(f.queue) }

func (f *FRED) updateAvg() {
	if f.idle && f.cfg.MeanServiceTime > 0 {
		m := float64(f.now()-f.since) / float64(f.cfg.MeanServiceTime)
		if m > 0 {
			f.avg *= math.Pow(1-f.cfg.Weight, m)
		}
		f.idle = false
	}
	f.avg = float64((1-f.cfg.Weight)*f.avg) + float64(f.cfg.Weight*float64(len(f.queue)))
}
