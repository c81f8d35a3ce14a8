package main

import (
	"fmt"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/csfq"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Micro-drivers call one layer's public functions in isolation — 2^20 times
// each in the benchmark, fewer in the package tests — and report nanoseconds
// per call. They do not depend on
// the workload or the seed: they are upper-bound predictors (ns per call x
// the layer's call count in a workload), not the attribution — that comes
// from the traced spans and the loop profile.

// appFunc adapts a closure to netem.App.
type appFunc func(*packet.Packet)

func (f appFunc) Receive(p *packet.Packet) { f(p) }

func nsPerCall(d time.Duration, calls int) float64 {
	return float64(d.Nanoseconds()) / float64(calls)
}

// microQueue measures the scheduler's pending-event queue: pending
// self-rescheduling handlers with exponential gaps (mean 1 ms), ns per Step.
func microQueue(pending, calls int) float64 {
	s := sim.NewScheduler()
	rng := sim.NewRNG(1)
	gaps := make([]time.Duration, 4096)
	for i := range gaps {
		gaps[i] = time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
	}
	next := 0
	var hid sim.HandlerID
	hid = s.RegisterHandler(func(arg uint32) {
		next = (next + 1) % len(gaps)
		s.PostHandler(gaps[next], hid, arg)
	})
	for i := 0; i < pending; i++ {
		next = (next + 1) % len(gaps)
		s.PostHandler(gaps[next], hid, uint32(i))
	}
	for i := 0; i < calls/8; i++ { // reach the steady-state queue shape
		s.Step()
	}
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		s.Step()
	}
	return nsPerCall(time.Since(t0), calls)
}

// line is a one-link network r -> x at the paper's 4 Mb/s with a counting
// sink at x.
type line struct {
	sched     *sim.Scheduler
	net       *netem.Network
	link      *netem.Link
	delivered int
}

func newLine() (*line, error) {
	l := &line{sched: sim.NewScheduler()}
	l.net = netem.New(l.sched)
	for _, name := range []string{"r", "x"} {
		if _, err := l.net.AddNode(name); err != nil {
			return nil, err
		}
	}
	var err error
	if l.link, err = l.net.AddLink("r", "x", netem.LinkConfig{RateBps: 4e6, Delay: time.Millisecond}); err != nil {
		return nil, err
	}
	if err := l.net.ComputeRoutes(); err != nil {
		return nil, err
	}
	l.net.Node("x").SetApp(appFunc(func(*packet.Packet) { l.delivered++ }))
	return l, nil
}

func (l *line) inject(flow packet.FlowID, seq int64) {
	l.net.Node("r").Inject(l.net.PacketPool().Get(flow, "x", seq, l.sched.Now()))
}

// service is the transmission time of one 1000-byte packet on the line.
const service = 2 * time.Millisecond

// microHop drives one DropTail link at line rate in bursts of 32 (so the
// queue is exercised but never overflows) and reports ns per delivered
// packet — inject, enqueue, transmit, propagate, sink, including the
// scheduler events that carry them — plus the peak queue length seen.
func microHop(calls int) (nsPerPkt float64, peakQueue int, err error) {
	l, err := newLine()
	if err != nil {
		return 0, 0, err
	}
	const burst = 32
	flow := packet.FlowID{Edge: "r", Local: 1}
	var seq int64
	var hid sim.HandlerID
	hid = l.sched.RegisterHandler(func(uint32) {
		for i := 0; i < burst; i++ {
			l.inject(flow, seq)
			seq++
		}
		if q := l.link.Queue().Len(); q > peakQueue {
			peakQueue = q
		}
		l.sched.PostHandler(burst*service, hid, 0)
	})
	l.sched.PostHandler(0, hid, 0)
	t0 := time.Now()
	if err := l.sched.Run(time.Duration(calls) * service); err != nil {
		return 0, 0, err
	}
	d := time.Since(t0)
	if l.delivered < calls-2*burst {
		return 0, 0, fmt.Errorf("netem micro-driver delivered %d of %d packets", l.delivered, calls)
	}
	return nsPerCall(d, l.delivered), peakQueue, nil
}

// routerMix is the packet mix both router micro-drivers forward: 16 flows
// with normalised rates 20..95 pkt/s, every fourth packet carrying a marker
// (Corelite) and all carrying the rate as label (CSFQ).
func routerMix() []*packet.Packet {
	pkts := make([]*packet.Packet, 1024)
	for i := range pkts {
		flow := packet.FlowID{Edge: "e", Local: i % 16}
		rate := 20 + 5*float64(i%16)
		p := packet.New(flow, "x", int64(i), 0)
		p.Label = rate
		if i%4 == 0 {
			p.Marker = &packet.Marker{Flow: flow, Rate: rate}
		}
		pkts[i] = p
	}
	return pkts
}

// microCoreRouter times core.Router.OnForward directly. A background source
// keeps the link's queue around 30 packets at line rate so the router stays
// in the congested regime (F_n > 0, the selector armed and emitting
// feedback); advancing the clock between calls also fires the router's
// epoch timer, so epoch processing is amortised into the per-packet figure.
func microCoreRouter(calls int) (float64, error) {
	l, err := newLine()
	if err != nil {
		return 0, err
	}
	feedback := 0
	r := core.NewRouter(l.net, l.net.Node("r"), core.DefaultRouterConfig(), sim.NewRNG(1).Stream("router"),
		func(packet.Marker, string) { feedback++ })
	r.Start()
	bg := packet.FlowID{Edge: "bg", Local: 0}
	var seq int64
	for ; seq < 30; seq++ {
		l.inject(bg, seq)
	}
	var hid sim.HandlerID
	hid = l.sched.RegisterHandler(func(uint32) {
		l.inject(bg, seq)
		seq++
		l.sched.PostHandler(service, hid, 0)
	})
	l.sched.PostHandler(service, hid, 0)

	pkts := routerMix()
	const gap = 20 * time.Microsecond // 5000 timed calls per 100 ms router epoch
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if err := l.sched.Run(time.Duration(i+1) * gap); err != nil {
			return 0, err
		}
		r.OnForward(pkts[i%len(pkts)], l.link)
	}
	d := time.Since(t0)
	if feedback == 0 {
		return 0, fmt.Errorf("core micro-driver never reached the congested regime (no feedback emitted)")
	}
	return nsPerCall(d, calls), nil
}

// microCSFQRouter times csfq.Router.OnForward directly with arrivals at 1.2x
// the link's 500 pkt/s capacity, so the fair-share estimator runs congested
// and the probabilistic drop is live.
func microCSFQRouter(calls int) (float64, error) {
	l, err := newLine()
	if err != nil {
		return 0, err
	}
	r := csfq.NewRouter(l.net, l.net.Node("r"), csfq.DefaultRouterConfig(), sim.NewRNG(1).Stream("router"))
	pkts := routerMix()
	labels := make([]float64, len(pkts))
	for i, p := range pkts {
		labels[i] = p.Label
	}
	const gap = time.Second / 600
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if err := l.sched.Run(time.Duration(i+1) * gap); err != nil {
			return 0, err
		}
		p := pkts[i%len(pkts)]
		p.Label = labels[i%len(pkts)] // undo relabelling by the previous pass
		r.OnForward(p, l.link)
	}
	d := time.Since(t0)
	if r.Stats().DroppedEarly == 0 {
		return 0, fmt.Errorf("csfq micro-driver never reached the congested regime (no early drop)")
	}
	return nsPerCall(d, calls), nil
}

// microAdapt times adapt.Controller.OnEpoch over a LIMD sawtooth: seven
// quiet epochs (+α each), then one with seven congestion indications (−7β).
func microAdapt(calls int) float64 {
	c := adapt.NewController(adapt.DefaultConfig())
	c.Start(0)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		ind := 0.0
		if i%8 == 7 {
			ind = 7
		}
		c.OnEpoch(time.Duration(i)*100*time.Millisecond, ind)
	}
	return nsPerCall(time.Since(t0), calls)
}

// microRecord times metrics.FlowRecorder: Deliver over 20 flows with a
// window Flush every 500 packets, as the packet harness drives it.
func microRecord(calls int) float64 {
	rec := metrics.NewFlowRecorder(time.Second)
	flows := make([]packet.FlowID, 20)
	for i := range flows {
		flows[i] = packet.FlowID{Edge: fmt.Sprintf("in%d", i+1), Local: 0}
	}
	now := time.Duration(0)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		rec.Deliver(flows[i%len(flows)], now)
		if i%500 == 499 {
			now += time.Second
			rec.Flush(now)
		}
	}
	return nsPerCall(time.Since(t0), calls)
}

// runMicroDrivers runs every micro-driver under its own span and stores the
// per-layer metrics they own in out.
func runMicroDrivers(out map[string]float64, calls int, tr *tracer) error {
	var firstErr error
	span := func(name string, f func() error) {
		id := tr.start("micro." + name)
		if err := f(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("micro-driver %s: %w", name, err)
		}
		tr.end(id)
	}
	span("sim.queue_p64", func() error { out["sim.queue_ns_per_event_p64"] = microQueue(64, calls); return nil })
	span("sim.queue_p4096", func() error { out["sim.queue_ns_per_event_p4096"] = microQueue(4096, calls); return nil })
	span("netem.hop", func() error {
		ns, peak, err := microHop(calls)
		out["netem.hop_ns_per_pkt"], out["netem.peak_queue"] = ns, float64(peak)
		return err
	})
	span("core.router", func() (err error) { out["core.router_ns_per_pkt"], err = microCoreRouter(calls); return })
	span("csfq.router", func() (err error) { out["csfq.router_ns_per_pkt"], err = microCSFQRouter(calls); return })
	span("adapt.step", func() error { out["adapt.step_ns"] = microAdapt(4 * calls); return nil })
	span("metrics.record", func() error { out["metrics.record_ns_per_pkt"] = microRecord(calls); return nil })
	return firstErr
}
