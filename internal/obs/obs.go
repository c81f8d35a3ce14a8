// Package obs is the simulator-wide observability layer: a per-run
// instrumentation hub (named counters and gauges with simulated-time
// sampling), a structured control-plane event stream, and exporters that
// render both as JSONL, CSV, and Chrome trace_event JSON.
//
// The layer is designed around two invariants:
//
//   - Zero perturbation: instruments never draw from the simulation RNG and
//     never schedule events that reorder model events, so a run with the
//     full observability stack enabled produces byte-identical figure
//     output to a run with it disabled (the time-series sampler adds sim
//     events, which only changes the processed-event count).
//   - Zero cost when off: every component holds instrument pointers that
//     are nil when no Registry is attached, and every mutating method on an
//     instrument (or on a nil *Registry) is a nil-receiver no-op — the hot
//     forwarding path pays a single nil check and allocates nothing.
//
// Instrument names follow a "<subsystem>/<name>" or
// "<subsystem>/<instance>/<name>" convention (e.g. "drop/overflow",
// "queue/C1->C2", "core/C1/congestion-epochs"); Summary relies on the
// prefixes defined as constants below.
package obs

import (
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// Canonical instrument name prefixes. Components register instruments under
// these so that Summary (and external consumers) can aggregate without
// knowing every producer.
const (
	// PrefixDrop is the netem drop counters ("drop/<reason>").
	PrefixDrop = "drop/"
	// PrefixQueue is the per-link instantaneous queue-length gauges
	// ("queue/<link>").
	PrefixQueue = "queue/"
	// PrefixFn is the per-link Corelite congestion-estimate gauges
	// ("fn/<link>").
	PrefixFn = "fn/"
	// PrefixAlpha is the per-link CSFQ fair-share gauges ("alpha/<link>").
	PrefixAlpha = "alpha/"
	// PrefixRate is the per-flow allowed-rate gauges ("rate/<flow>").
	PrefixRate = "rate/"
	// PrefixPhase is the per-flow adaptation-phase gauges
	// ("phase/<flow>"; the value is the numeric adapt.Phase).
	PrefixPhase = "phase/"
	// PrefixWait is the per-link queueing-delay histograms
	// ("wait/<link>", simulated seconds from enqueue to start of service).
	PrefixWait = "wait/"
	// HistFeedbackRTT is the control-plane feedback delivery-latency
	// histogram (simulated seconds from a router's feedback decision to the
	// edge applying it).
	HistFeedbackRTT = "rtt/feedback"
	// HistSolve is the shared name prefix of the fluid engine's wall-clock
	// water-filling solve-time histograms (the engine profiling itself, not
	// the model); the full/incremental split hangs off it.
	HistSolve = "solve/water-fill"
	// HistSolveFull times the monolithic solves over the whole model.
	HistSolveFull = "solve/water-fill/full"
	// HistSolveIncremental times the dirty-set regional re-solves.
	HistSolveIncremental = "solve/water-fill/incremental"
	// CtrSolveTouched counts the flows whose rate each solve recomputed —
	// the direct measure of how sparse the incremental solver keeps the
	// work ("fluid/solve/flows-touched").
	CtrSolveTouched = "fluid/solve/flows-touched"
	// SuffixCongestionEpochs is the per-router congestion-epoch counters
	// ("core/<node>/congestion-epochs").
	SuffixCongestionEpochs = "/congestion-epochs"
	// SuffixFeedbackSent is the per-router feedback counters
	// ("core/<node>/feedback-sent").
	SuffixFeedbackSent = "/feedback-sent"
)

// Counter is a named monotonic counter. The nil Counter (what a nil
// Registry hands out) accepts Add/Inc as no-ops, so call sites need no
// enabled/disabled branching of their own.
type Counter struct {
	name string
	v    int64
}

// Name reports the counter's registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add increments the counter by delta. No-op on a nil receiver.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v += delta
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a named instantaneous value: either set explicitly (Set) or
// backed by a read function (Registry.GaugeFunc), which keeps the producer's
// hot path free of bookkeeping — the value is read only when sampled.
type Gauge struct {
	name string
	v    float64
	fn   func() float64
}

// Name reports the gauge's registered name.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Set stores v as the gauge's current value. No-op on a nil receiver or a
// function-backed gauge.
func (g *Gauge) Set(v float64) {
	if g == nil || g.fn != nil {
		return
	}
	g.v = v
}

// Value reports the gauge's current value (0 for a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return g.v
}

// Registry is the per-run instrumentation hub: named instruments, their
// sampled time series, and the recorded control-plane event stream. It is
// deliberately not safe for concurrent use — a registry belongs to exactly
// one simulation (one sim.Scheduler), which is single-threaded; parallel
// batches attach one registry per job.
//
// All methods tolerate a nil receiver, returning nil instruments and
// dropping events, so model code can hold and use a possibly-nil *Registry
// without branching.
type Registry struct {
	counters   []*Counter
	counterIdx map[string]int
	gauges     []*Gauge
	gaugeIdx   map[string]int
	hists      []*Histogram
	histIdx    map[string]int

	events []ControlEvent

	// sampleAt holds the sampling instants; series[i] is gauge i's value
	// at each instant (NaN before the gauge was registered).
	sampleAt []time.Duration
	series   [][]float64

	// perf holds the engine self-profile recorded at run end (nil when no
	// profiler was attached). Unlike every other instrument it measures
	// wall-clock cost of the engine itself, not simulated behavior.
	perf []PerfStat
}

// NewRegistry returns an empty hub.
func NewRegistry() *Registry {
	return &Registry{
		counterIdx: make(map[string]int),
		gaugeIdx:   make(map[string]int),
		histIdx:    make(map[string]int),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil receiver.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if i, ok := r.counterIdx[name]; ok {
		return r.counters[i]
	}
	c := &Counter{name: name}
	r.counterIdx[name] = len(r.counters)
	r.counters = append(r.counters, c)
	return c
}

// Gauge returns the named set-style gauge, creating it on first use.
// Returns nil on a nil receiver.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if i, ok := r.gaugeIdx[name]; ok {
		return r.gauges[i]
	}
	return r.addGauge(&Gauge{name: name})
}

// GaugeFunc registers a function-backed gauge: fn is invoked at sampling
// instants (and by Value), so the producer pays nothing between samples.
// Re-registering a name replaces its read function. No-op on a nil
// receiver.
func (r *Registry) GaugeFunc(name string, fn func() float64) *Gauge {
	if r == nil {
		return nil
	}
	if i, ok := r.gaugeIdx[name]; ok {
		r.gauges[i].fn = fn
		return r.gauges[i]
	}
	return r.addGauge(&Gauge{name: name, fn: fn})
}

func (r *Registry) addGauge(g *Gauge) *Gauge {
	r.gaugeIdx[g.name] = len(r.gauges)
	r.gauges = append(r.gauges, g)
	// A gauge registered after sampling began backfills NaN so every
	// series stays parallel to sampleAt (NaN renders as an empty CSV
	// cell).
	s := make([]float64, len(r.sampleAt))
	for i := range s {
		s[i] = math.NaN()
	}
	r.series = append(r.series, s)
	return g
}

// Histogram returns the named histogram, creating it with the given unit
// label on first use (a later lookup keeps the original unit). Returns nil
// on a nil receiver.
func (r *Registry) Histogram(name, unit string) *Histogram {
	if r == nil {
		return nil
	}
	if r.histIdx == nil {
		r.histIdx = make(map[string]int)
	}
	if i, ok := r.histIdx[name]; ok {
		return r.hists[i]
	}
	h := &Histogram{name: name, unit: unit}
	r.histIdx[name] = len(r.hists)
	r.hists = append(r.hists, h)
	return h
}

// Histograms returns the registered histograms in registration order.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	out := make([]*Histogram, len(r.hists))
	copy(out, r.hists)
	return out
}

// RecordPerf stores the engine self-profile (per-handler-kind event counts
// and wall-time estimates) captured by the event-loop profiler at run end.
// No-op on a nil receiver.
func (r *Registry) RecordPerf(stats []PerfStat) {
	if r == nil {
		return
	}
	r.perf = stats
}

// Perf returns the recorded engine self-profile (nil when no profiler ran).
func (r *Registry) Perf() []PerfStat {
	if r == nil {
		return nil
	}
	return r.perf
}

// Counters returns the registered counters in registration order.
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	out := make([]*Counter, len(r.counters))
	copy(out, r.counters)
	return out
}

// Gauges returns the registered gauges in registration order.
func (r *Registry) Gauges() []*Gauge {
	if r == nil {
		return nil
	}
	out := make([]*Gauge, len(r.gauges))
	copy(out, r.gauges)
	return out
}

// Emit records one control-plane event. No-op on a nil receiver.
func (r *Registry) Emit(e ControlEvent) {
	if r == nil {
		return
	}
	r.events = append(r.events, e)
}

// Enabled reports whether events and samples are being recorded — model
// code uses it to skip building event structs when the layer is off.
func (r *Registry) Enabled() bool { return r != nil }

// Events returns the recorded control events in emission order.
func (r *Registry) Events() []ControlEvent {
	if r == nil {
		return nil
	}
	return r.events
}

// Sample snapshots every registered gauge at simulated time now. It is
// normally driven by StartSampler but may be called directly (e.g. at
// scenario end for a final data point).
func (r *Registry) Sample(now time.Duration) {
	if r == nil {
		return
	}
	r.sampleAt = append(r.sampleAt, now)
	for i, g := range r.gauges {
		r.series[i] = append(r.series[i], g.Value())
	}
}

// StartSampler arms a repeating simulation event that snapshots all gauges
// every interval of simulated time, up to and including horizon. Sampling
// draws no randomness and mutates no model state, so enabling it cannot
// change a run's measured series.
func (r *Registry) StartSampler(sched *sim.Scheduler, every, horizon time.Duration) {
	if r == nil || sched == nil || every <= 0 {
		return
	}
	hid := sched.RegisterHandler(func(uint32) {
		sched.MarkHandler(sim.KindMeasure)
		now := sched.Now()
		r.Sample(now)
		if now+every <= horizon {
			sched.RescheduleAfter(every)
		}
	})
	sched.PostHandler(every, hid, 0)
}

// SampleTimes returns the sampling instants.
func (r *Registry) SampleTimes() []time.Duration {
	if r == nil {
		return nil
	}
	return r.sampleAt
}

// Series returns the sampled values of the named gauge (parallel to
// SampleTimes; NaN marks instants before the gauge existed), or nil.
func (r *Registry) Series(name string) []float64 {
	if r == nil {
		return nil
	}
	i, ok := r.gaugeIdx[name]
	if !ok {
		return nil
	}
	return r.series[i]
}

// Summary condenses the run's telemetry into the per-job health numbers
// the batch runners report.
type Summary struct {
	// Events is the number of recorded control events; ByKind breaks it
	// down per event kind.
	Events int64
	ByKind map[string]int64
	// Samples is the number of time-series sampling instants.
	Samples int
	// PeakQueue is the largest sampled queue length over all links.
	PeakQueue float64
	// CongestionEpochs sums the per-router congestion-epoch counters.
	CongestionEpochs int64
	// FeedbackSent sums the per-router feedback counters.
	FeedbackSent int64
	// Drops sums the netem drop counters over all reasons.
	Drops int64
}

// Summary computes the run's telemetry summary.
func (r *Registry) Summary() Summary {
	s := Summary{ByKind: make(map[string]int64)}
	if r == nil {
		return s
	}
	s.Events = int64(len(r.events))
	for _, e := range r.events {
		s.ByKind[e.Kind.String()]++
	}
	s.Samples = len(r.sampleAt)
	for i, g := range r.gauges {
		if !strings.HasPrefix(g.name, PrefixQueue) {
			continue
		}
		for _, v := range r.series[i] {
			if !math.IsNaN(v) && v > s.PeakQueue {
				s.PeakQueue = v
			}
		}
	}
	for _, c := range r.counters {
		switch {
		case strings.HasSuffix(c.name, SuffixCongestionEpochs):
			s.CongestionEpochs += c.v
		case strings.HasSuffix(c.name, SuffixFeedbackSent):
			s.FeedbackSent += c.v
		case strings.HasPrefix(c.name, PrefixDrop):
			s.Drops += c.v
		}
	}
	return s
}

// KindNames returns the summary's event kinds in sorted order (for
// deterministic reporting).
func (s Summary) KindNames() []string {
	names := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
