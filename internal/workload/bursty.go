package workload

import (
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// OnOff modulates a fixed-rate unresponsive packet stream with exponential
// ON and OFF periods — bursty cross traffic that does not react to
// congestion (the sensitivity scenarios use it to stress the marker
// feedback loop with non-adaptive bursts).
type OnOff struct {
	sched  *sim.Scheduler
	rng    *sim.RNG
	inject func(*packet.Packet)
	pool   *packet.Pool

	flow      packet.FlowID
	dst       string
	sizeBytes int
	rate      float64
	meanOn    time.Duration
	meanOff   time.Duration

	on     bool
	active bool
	seq    int64
	// emitHid and phaseHid are the registered emission and phase-flip
	// handlers. Pending events are withdrawn the way Pacer withdraws a
	// release: bumping gen turns the queued entries into no-ops. An OFF
	// phase bumps it from inside the phase event, so only emissions are
	// withdrawn; Stop withdraws both.
	emitHid, phaseHid sim.HandlerID
	gen               uint32
}

// OnOffConfig parameterizes an OnOff stream.
type OnOffConfig struct {
	Flow packet.FlowID
	// Dst is the node the packets are addressed to.
	Dst string
	// SizeBytes defaults to the paper's 1 KB.
	SizeBytes int
	// Rate is the emission rate while ON, packets/second.
	Rate float64
	// MeanOn / MeanOff are the exponential period means.
	MeanOn  time.Duration
	MeanOff time.Duration
	// Inject delivers packets into the network.
	Inject func(*packet.Packet)
	// Pool, when non-nil, recycles emitted packets; nil falls back to plain
	// allocation.
	Pool *packet.Pool
}

// NewOnOff returns an inactive on/off stream.
func NewOnOff(sched *sim.Scheduler, rng *sim.RNG, cfg OnOffConfig) *OnOff {
	size := cfg.SizeBytes
	if size <= 0 {
		size = packet.DefaultSizeBytes
	}
	o := &OnOff{
		sched:     sched,
		rng:       rng,
		inject:    cfg.Inject,
		pool:      cfg.Pool,
		flow:      cfg.Flow,
		dst:       cfg.Dst,
		sizeBytes: size,
		rate:      cfg.Rate,
		meanOn:    cfg.MeanOn,
		meanOff:   cfg.MeanOff,
	}
	o.emitHid = sched.RegisterHandler(o.onEmit)
	o.phaseHid = sched.RegisterHandler(o.onPhase)
	return o
}

// Start begins the on/off cycle (starting ON).
func (o *OnOff) Start() {
	if o.active {
		return
	}
	o.active = true
	o.enterOn()
}

func (o *OnOff) expDuration(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(o.rng.ExpFloat64() * float64(mean))
}

func (o *OnOff) enterOn() {
	if !o.active {
		return
	}
	o.on = true
	o.emit()
	o.sched.PostHandler(o.expDuration(o.meanOn), o.phaseHid, o.gen)
}

func (o *OnOff) enterOff() {
	if !o.active {
		return
	}
	o.on = false
	o.gen++
	o.sched.PostHandler(o.expDuration(o.meanOff), o.phaseHid, o.gen)
}

// onPhase is the registered phase-flip handler; gen is the generation it
// was posted with.
func (o *OnOff) onPhase(gen uint32) {
	if gen != o.gen {
		return // stopped after posting
	}
	if o.on {
		o.enterOff()
	} else {
		o.enterOn()
	}
}

// onEmit is the registered emission handler; gen is the generation it was
// posted with.
func (o *OnOff) onEmit(gen uint32) {
	if gen == o.gen { // else withdrawn by an OFF phase or Stop
		o.emit()
	}
}

func (o *OnOff) emit() {
	o.sched.MarkHandler(sim.KindSource)
	if !o.active || !o.on || o.rate <= 0 {
		return
	}
	p := o.pool.Get(o.flow, o.dst, o.seq, o.sched.Now())
	p.SizeBytes = o.sizeBytes
	o.seq++
	o.inject(p)
	gap := time.Duration(float64(time.Second) / o.rate)
	o.sched.PostHandler(gap, o.emitHid, o.gen)
}
