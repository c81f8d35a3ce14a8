package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	corelite "repro"
	"repro/internal/workload"
)

// op is one unit of work: a scenario run to completion plus its CSV emit.
type op struct {
	// sc is exactly what the program under test receives.
	sc corelite.Scenario
	// expanded is sc with its Generate block expanded by standalone
	// generator calls, so the benchmark can look up schedules and weights
	// the way Run does internally (fairness probe, staged replay).
	expanded corelite.Scenario
}

// opOutcome is what the benchmark keeps of one completed op.
type opOutcome struct {
	digest   [sha256.Size]byte
	csvBytes int64
	res      *corelite.Result
	err      error
}

// digestWriter hashes and counts what WriteCSV emits — the sink cmd/figures
// and coresim -out would hand to a file.
type digestWriter struct {
	h hash.Hash
	n int64
}

func (d *digestWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

var csvKinds = []corelite.SeriesKind{corelite.SeriesAllowed, corelite.SeriesReceived, corelite.SeriesCumulative}

func emitCSV(w io.Writer, res *corelite.Result) error {
	for _, k := range csvKinds {
		if err := corelite.WriteCSV(w, res, k); err != nil {
			return err
		}
	}
	return nil
}

func digestOf(res *corelite.Result) (d [sha256.Size]byte, n int64, err error) {
	dw := &digestWriter{h: sha256.New()}
	if err := emitCSV(dw, res); err != nil {
		return d, 0, err
	}
	copy(d[:], dw.h.Sum(nil))
	return d, dw.n, nil
}

// runOp executes one op; a panic inside the program counts as the op's
// failure, not the benchmark's.
func runOp(sc corelite.Scenario) (out opOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("panic: %v", r)
		}
	}()
	res, err := corelite.Run(sc)
	if err != nil {
		return opOutcome{err: err}
	}
	out.res = res
	out.digest, out.csvBytes, out.err = digestOf(res)
	return out
}

// expand mirrors Scenario normalisation for generated scenarios using the
// standalone generators: topology spec, traffic weights, schedules and the
// unresponsive set, explicit scenario entries overriding generated ones.
func expand(sc corelite.Scenario, tr *tracer) (corelite.Scenario, error) {
	g := sc.Generate
	if g == nil {
		return sc, nil
	}
	id := tr.start("topogen.generate")
	spec, err := g.Topo.Generate(sc.Seed)
	tr.end(id)
	if err != nil {
		return sc, err
	}
	if g.Traffic != nil {
		cfg := *g.Traffic
		if cfg.Horizon == 0 {
			cfg.Horizon = sc.Duration
		}
		id := tr.start("trafficgen.generate")
		wl, err := cfg.Generate(sc.Seed, len(spec.Flows))
		tr.end(id)
		if err != nil {
			return sc, err
		}
		for i := range spec.Flows {
			if w, ok := wl.Weights[spec.Flows[i].Index]; ok {
				spec.Flows[i].Weight = w
			}
		}
		schedules := make(map[int]workload.Schedule, len(wl.Schedules)+len(sc.Schedules))
		for idx, s := range wl.Schedules {
			schedules[idx] = s
		}
		for idx, s := range sc.Schedules {
			schedules[idx] = s
		}
		unresp := make(map[int]float64, len(wl.Unresponsive)+len(sc.Unresponsive))
		for idx, r := range wl.Unresponsive {
			unresp[idx] = r
		}
		for idx, r := range sc.Unresponsive {
			unresp[idx] = r
		}
		sc.Schedules, sc.Unresponsive = schedules, unresp
	}
	sc.Generate = nil
	sc.Spec = spec
	return sc, nil
}

// buildOps is the deterministic part of set-up: scenarios from the seed,
// standalone generation, validation.
func buildOps(w workloadDef, seed int64, scale float64, tr *tracer) ([]op, error) {
	scs, err := w.ops(seed, scale)
	if err != nil {
		return nil, err
	}
	ops := make([]op, len(scs))
	for i, sc := range scs {
		ex, err := expand(sc, tr)
		if err != nil {
			return nil, fmt.Errorf("%s op %d: %w", w.name, i, err)
		}
		id := tr.start("experiments.validate")
		err = sc.Validate()
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s op %d: %w", w.name, i, err)
		}
		ops[i] = op{sc: sc, expanded: ex}
	}
	return ops, nil
}

// setUp builds the ops and warms the process up on the leading tenth of them
// (the one op of the single-op workloads, one seed's figure batch for
// flow_figs): first touch of a fresh heap costs ~15% on flow_fattree100k and
// must not land in the first timed run.
func setUp(w workloadDef, seed int64, scale float64) ([]op, error) {
	ops, err := buildOps(w, seed, scale, nil)
	if err != nil {
		return nil, err
	}
	for _, o := range ops[:(len(ops)+9)/10] {
		if out := runOp(o.sc); out.err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, out.err)
		}
	}
	return ops, nil
}

// runSample is one timed run: every op of the workload, once, serially.
type runSample struct {
	wall     float64
	allocMB  float64
	allocs   float64
	pkts     float64 // delivered + lost
	lost     float64
	flowSec  float64
	events   float64
	jain     float64 // mean over ops
	csvBytes int64
	digests  [][sha256.Size]byte
	errs     []error // per op, nil when it completed
}

// timedRun executes the ops with tracing off, on the calling goroutine. The
// clock runs only while an op does (Run + CSV emit); each result is folded
// into the sample and dropped before the next op starts, so the benchmark
// retains nothing that would show up in a live-heap reading.
func timedRun(ops []op) runSample {
	s := runSample{
		digests: make([][sha256.Size]byte, len(ops)),
		errs:    make([]error, len(ops)),
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var wall time.Duration
	for i, o := range ops {
		t0 := time.Now()
		out := runOp(o.sc)
		wall += time.Since(t0)
		if s.errs[i] = out.err; out.err != nil {
			continue
		}
		s.digests[i] = out.digest
		s.csvBytes += out.csvBytes
		for _, f := range out.res.Flows {
			s.pkts += float64(f.Delivered)
		}
		s.pkts += float64(out.res.TotalLosses)
		s.lost += float64(out.res.TotalLosses)
		s.flowSec += float64(len(out.res.Flows)) * out.res.Duration.Seconds()
		s.events += float64(out.res.Events)
		_, jain := fairnessProbe(out.res, o.expanded)
		s.jain += jain / float64(len(ops))
	}
	runtime.ReadMemStats(&m1)
	s.wall = wall.Seconds()
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	s.allocs = float64(m1.Mallocs - m0.Mallocs)
	return s
}

// fairnessProbe follows the reportFairness probe of bench_test.go: Jain's
// index over weight-normalised allowed rates at the latest probe time with
// active flows (some scenarios end with every flow stopped). Unlike that
// probe it leaves unresponsive blasters out, as the invariant checker's
// fairness residual does: their "allowed" rate is their fixed blast, and a
// handful of them would otherwise dominate the index on the fat-tree
// workloads. It returns the probe time and the index there, or zeros when no
// probe time has active responsive flows.
func fairnessProbe(res *corelite.Result, sc corelite.Scenario) (time.Duration, float64) {
	for _, frac := range []float64{1, 0.9, 0.75, 0.5} {
		at := time.Duration(float64(res.Duration)*frac) - res.SampleWindow
		var norm []float64
		for i := range res.Flows {
			f := &res.Flows[i]
			if _, blaster := sc.Unresponsive[f.Index]; blaster || f.Weight <= 0 {
				continue
			}
			if s, ok := sc.Schedules[f.Index]; ok && !s.ActiveAt(at, sc.Duration) {
				continue
			}
			if v, ok := f.AllowedRate.ValueAt(at); ok {
				norm = append(norm, v/f.Weight)
			}
		}
		if j := corelite.JainIndex(norm); j > 0 {
			return at, j
		}
	}
	return 0, 0
}

// startHeapSampler polls the runtime's live-heap gauge (bytes marked by the
// last GC cycle) every 50 ms; the returned function stops the goroutine,
// waits for it and yields the maximum seen.
func startHeapSampler() (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 && sample[0].Value.Uint64() > peak {
			peak = sample[0].Value.Uint64()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		read()
		return peak
	}
}

// endToEndResult is the tracing-off half of a workload's result.
type endToEndResult struct {
	Runs      int             `json:"runs"`
	OpsPerRun int             `json:"ops_per_run"`
	SetUps    int             `json:"set_ups"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Digest    string          `json:"digest"`
	Metrics   map[string]stat `json:"metrics"`
	Failures  []string        `json:"failures,omitempty"`
}

func (r *endToEndResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

const (
	maxSetUps    = 3
	setUpBudget  = 2 * time.Second
	minTimedRuns = 2
)

// measureEndToEnd is the closed-loop protocol for one workload: set up
// (several times when it is cheap, reporting the median), then timed runs
// back to back on one worker until the time budget is spent, each run the
// same ops from the same seed so their CSV digests must agree.
func measureEndToEnd(w workloadDef, seed int64, seconds float64, scale float64) (endToEndResult, error) {
	var ops []op
	var setUps []float64
	for spent := time.Duration(0); len(setUps) < maxSetUps && (len(setUps) == 0 || spent < setUpBudget); {
		t0 := time.Now()
		var err error
		if ops, err = setUp(w, seed, scale); err != nil {
			return endToEndResult{}, err
		}
		d := time.Since(t0)
		spent += d
		setUps = append(setUps, d.Seconds())
	}

	var runs []runSample
	for t0 := time.Now(); len(runs) < minTimedRuns || time.Since(t0).Seconds() < seconds; {
		runs = append(runs, timedRun(ops))
	}

	r := endToEndResult{
		Runs:      len(runs),
		OpsPerRun: len(ops),
		SetUps:    len(setUps),
		Attempted: len(runs) * len(ops),
		Metrics:   make(map[string]stat),
	}
	for ri, run := range runs {
		for oi, err := range run.errs {
			switch {
			case err != nil:
				r.fail("run %d op %d (%s): %v", ri, oi, ops[oi].sc.Name, err)
			case run.digests[oi] != runs[0].digests[oi]:
				r.fail("run %d op %d (%s): CSV digest differs from run 0 of the same seed", ri, oi, ops[oi].sc.Name)
			}
		}
	}
	r.Digest = combineDigests(runs[0].digests)

	col := func(f func(runSample) float64) []float64 {
		v := make([]float64, len(runs))
		for i, run := range runs {
			v[i] = f(run)
		}
		return v
	}
	values := map[string][]float64{
		"wall_s":           col(func(s runSample) float64 { return s.wall }),
		"simpkts_per_s":    col(func(s runSample) float64 { return s.pkts / s.wall }),
		"flowsec_per_s":    col(func(s runSample) float64 { return s.flowSec / s.wall }),
		"setup_s":          setUps,
		"alloc_mb_per_run": col(func(s runSample) float64 { return s.allocMB }),
		"allocs_per_run":   col(func(s runSample) float64 { return s.allocs }),
		"jain_norm":        col(func(s runSample) float64 { return s.jain }),
		"delivered_share":  col(func(s runSample) float64 { return (s.pkts - s.lost) / s.pkts }),
	}
	for _, m := range endToEnd {
		r.Metrics[m.Name] = summarise(values[m.Name], m.Unit)
	}
	return r, nil
}

func combineDigests(ds [][sha256.Size]byte) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write(d[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
