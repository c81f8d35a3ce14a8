package corelite_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	corelite "repro"
	"repro/internal/baseline"
)

// TestPublicQuickstart runs the README example through the public API and
// checks the headline result: a 1:2 weighted split of one bottleneck with
// zero losses.
func TestPublicQuickstart(t *testing.T) {
	sc := corelite.Scenario{
		Name:     "two-flows",
		Scheme:   corelite.SchemeCorelite,
		Duration: 60 * time.Second,
		Seed:     1,
		NumFlows: 2,
		Weights:  map[int]float64{1: 1, 2: 2},
		Dumbbell: true,
	}
	res, err := corelite.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r1 := res.Flow(1).AllowedRate.Final()
	r2 := res.Flow(2).AllowedRate.Final()
	if r1 < 120 || r1 > 220 {
		t.Errorf("flow 1 final rate = %v, want ~167", r1)
	}
	if r2 < 260 || r2 > 420 {
		t.Errorf("flow 2 final rate = %v, want ~333", r2)
	}
	if res.TotalLosses != 0 {
		t.Errorf("losses = %d, want 0", res.TotalLosses)
	}
	if math.Abs(res.ExpectedFullSet[1]-500.0/3) > 1e-6 {
		t.Errorf("oracle expected[1] = %v, want 166.7", res.ExpectedFullSet[1])
	}
}

// TestPublicCSVAndSummary exercises the output helpers end to end.
func TestPublicCSVAndSummary(t *testing.T) {
	sc := corelite.Scenario{
		Name:     "csv",
		Scheme:   corelite.SchemeCorelite,
		Duration: 5 * time.Second,
		Seed:     1,
		NumFlows: 2,
		Dumbbell: true,
	}
	res, err := corelite.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var csv, summary strings.Builder
	if err := corelite.WriteCSV(&csv, res, corelite.SeriesAllowed); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.HasPrefix(csv.String(), "time_s,flow1,flow2") {
		t.Errorf("CSV header wrong: %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
	if err := corelite.WriteSummary(&summary, res); err != nil {
		t.Fatalf("WriteSummary: %v", err)
	}
	if !strings.Contains(summary.String(), "scenario csv (corelite)") {
		t.Errorf("summary missing scenario line:\n%s", summary.String())
	}
}

// TestPublicFigureScenarios checks that every figure constructor produces
// a valid, runnable scenario definition.
func TestPublicFigureScenarios(t *testing.T) {
	for _, sc := range corelite.AllFigures(1) {
		if err := sc.Validate(); err != nil {
			t.Errorf("scenario %s invalid: %v", sc.Name, err)
		}
	}
	// Figures 5/6 are the cheap ones; run them for real.
	res5, err := corelite.Run(corelite.Fig5Scenario(1))
	if err != nil {
		t.Fatalf("Figure 5: %v", err)
	}
	res6, err := corelite.Run(corelite.Fig6Scenario(1))
	if err != nil {
		t.Fatalf("Figure 6: %v", err)
	}
	if res5.Scheme != corelite.SchemeCorelite || res6.Scheme != corelite.SchemeCSFQ {
		t.Error("figure runner schemes wrong")
	}
	// The §4.2 headline: CSFQ loses at least 10x more packets.
	if res6.TotalLosses < 10*res5.TotalLosses {
		t.Errorf("loss separation too small: corelite %d vs csfq %d",
			res5.TotalLosses, res6.TotalLosses)
	}
}

// TestPublicRunBatch drives the parallel orchestration layer through the
// facade: a small batch on several workers returns results in job order
// with instrumentation, and matches a serial run of the same specs.
func TestPublicRunBatch(t *testing.T) {
	mk := func(name string, seed int64) corelite.Scenario {
		return corelite.Scenario{
			Name:     name,
			Scheme:   corelite.SchemeCorelite,
			Duration: 5 * time.Second,
			Seed:     seed,
			NumFlows: 2,
			Weights:  map[int]float64{1: 1, 2: 2},
			Dumbbell: true,
		}
	}
	jobs := corelite.JobsFromScenarios(mk("a", 1), mk("b", 2), mk("c", 3), mk("d", 4))
	par, err := corelite.NewPool(corelite.PoolConfig{Workers: 4}).Execute(context.Background(), jobs)
	if err != nil {
		t.Fatalf("parallel batch: %v", err)
	}
	ser, err := corelite.NewPool(corelite.PoolConfig{Workers: 1}).Execute(context.Background(), jobs)
	if err != nil {
		t.Fatalf("serial batch: %v", err)
	}
	for i := range jobs {
		if par[i].Err != nil {
			t.Fatalf("job %q: %v", jobs[i].Name, par[i].Err)
		}
		if par[i].Job.Name != jobs[i].Name {
			t.Fatalf("result %d out of order: %q", i, par[i].Job.Name)
		}
		if par[i].Output.Events != ser[i].Output.Events {
			t.Errorf("job %q: parallel run diverged from serial (%d vs %d events)",
				jobs[i].Name, par[i].Output.Events, ser[i].Output.Events)
		}
		if par[i].Stats.Events == 0 || par[i].Stats.Wall <= 0 {
			t.Errorf("job %q missing instrumentation: %+v", jobs[i].Name, par[i].Stats)
		}
	}
	if seed := corelite.DeriveSeed(1, "a"); seed == corelite.DeriveSeed(1, "b") {
		t.Error("DeriveSeed does not separate job names")
	}
	if corelite.Fig4Scenario(1).Name == corelite.Fig3Scenario(1).Name {
		t.Error("Fig4Scenario shares Figure 3's name")
	}
}

// TestPublicWeightProfiles spot-checks the exported weight helpers.
func TestPublicWeightProfiles(t *testing.T) {
	if corelite.WeightsFig3()[5] != 3 {
		t.Error("WeightsFig3()[5] != 3")
	}
	if corelite.WeightsFig7()[10] != 3 {
		t.Error("WeightsFig7()[10] != 3")
	}
	if corelite.WeightsCeilHalf(10)[9] != 5 {
		t.Error("WeightsCeilHalf(10)[9] != 5")
	}
}

// TestPublicExpectedRatesAt checks the oracle for a dynamic schedule.
func TestPublicExpectedRatesAt(t *testing.T) {
	sc := corelite.Scenario{
		Scheme:   corelite.SchemeCorelite,
		Duration: 100 * time.Second,
		NumFlows: 2,
		Weights:  map[int]float64{1: 1, 2: 3},
		Dumbbell: true,
		Schedules: map[int]corelite.Schedule{
			2: corelite.Window(50*time.Second, 0),
		},
	}
	early, err := corelite.ExpectedRatesAt(sc, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(early[1]-500) > 1e-6 {
		t.Errorf("early expected[1] = %v, want 500 (alone)", early[1])
	}
	late, err := corelite.ExpectedRatesAt(sc, 80*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(late[1]-125) > 1e-6 || math.Abs(late[2]-375) > 1e-6 {
		t.Errorf("late expected = %v, want 125/375", late)
	}
}

// TestPublicREDDiscipline plugs a RED core queue into a scenario through
// the public CoreQueue hook (the AQM-independence ablation path).
func TestPublicREDDiscipline(t *testing.T) {
	rng := corelite.NewRNG(3)
	sc := corelite.Scenario{
		Name:     "red-core",
		Scheme:   corelite.SchemeCorelite,
		Duration: 40 * time.Second,
		Seed:     1,
		NumFlows: 2,
		Weights:  map[int]float64{1: 1, 2: 2},
		Dumbbell: true,
	}
	sc.TopologyOptions.CoreQueue = func(link string, now func() time.Duration) corelite.Discipline {
		return baseline.NewRED(baseline.DefaultREDConfig(40, 2*time.Millisecond), now, rng.Stream(link))
	}
	res, err := corelite.Run(sc)
	if err != nil {
		t.Fatalf("Run with RED core: %v", err)
	}
	ratio := (res.Flow(2).AllowedRate.Final() / 2) / res.Flow(1).AllowedRate.Final()
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("weighted fairness broke under RED: normalized ratio %.2f", ratio)
	}
}

// TestPublicObsDeterminism is the observability layer's zero-perturbation
// guarantee at the public API level: running the same figure scenario with
// the full telemetry stack attached (counters, gauges, sampler, control
// events) produces byte-identical figure CSVs to a run with it off. The
// sampler adds scheduler events but draws no randomness and mutates no
// model state.
func TestPublicObsDeterminism(t *testing.T) {
	base := corelite.Fig5Scenario(1)
	base.Duration = 25 * time.Second

	renderAll := func(res *corelite.Result) []byte {
		var buf bytes.Buffer
		for _, kind := range []corelite.SeriesKind{
			corelite.SeriesAllowed, corelite.SeriesReceived, corelite.SeriesCumulative,
		} {
			if err := corelite.WriteCSV(&buf, res, kind); err != nil {
				t.Fatalf("WriteCSV %v: %v", kind, err)
			}
		}
		return buf.Bytes()
	}

	plainRes, err := corelite.Run(base)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	observed := base
	reg := corelite.NewObsRegistry()
	observed.Obs = reg
	obsRes, err := corelite.Run(observed)
	if err != nil {
		t.Fatalf("observed run: %v", err)
	}

	// The telemetry must actually have been captured — an inert registry
	// would make the equality below vacuous.
	sum := reg.Summary()
	if sum.Samples == 0 || sum.Events == 0 || sum.FeedbackSent == 0 {
		t.Fatalf("observed run captured no telemetry: %+v", sum)
	}
	// Ditto for the perf layer that rides along automatically: the
	// event-loop profile must attribute events to handler kinds, and the
	// queue-wait/feedback-RTT histograms must have observations.
	perf := reg.Perf()
	if len(perf) == 0 {
		t.Fatal("observed run recorded no event-loop profile")
	}
	var perfEvents uint64
	for _, st := range perf {
		perfEvents += st.Events
	}
	if perfEvents != obsRes.Events {
		t.Errorf("profile attributes %d events, run processed %d", perfEvents, obsRes.Events)
	}
	hists := reg.Histograms()
	if len(hists) == 0 {
		t.Fatal("observed run recorded no latency histograms")
	}
	var histObs uint64
	for _, h := range hists {
		histObs += h.Count()
	}
	if histObs == 0 {
		t.Error("latency histograms captured no observations")
	}

	if !bytes.Equal(renderAll(plainRes), renderAll(obsRes)) {
		t.Error("figure CSV output differs between obs-on and obs-off runs")
	}
	// The only permitted difference is the processed-event count: exactly
	// one scheduler event per sampling instant — the profiler and the
	// histograms observe wall-clock-side only and add no scheduler events.
	if extra := obsRes.Events - plainRes.Events; extra != uint64(sum.Samples) {
		t.Errorf("event count grew by %d, want exactly the %d sampler ticks", extra, sum.Samples)
	}
}

// TestPublicObsDeterminismFlow is the same zero-perturbation guarantee for
// the flow (fluid) backend: first-class telemetry (rate/alpha/fn gauges,
// epoch counters, solve-time histograms) samples only at existing epoch
// batches and times solves on the wall clock, so the figure CSVs and the
// event count are identical with the registry attached or not.
func TestPublicObsDeterminismFlow(t *testing.T) {
	base := corelite.Fig5Scenario(1)
	base.Backend = corelite.BackendFlow
	base.Duration = 25 * time.Second

	renderAll := func(res *corelite.Result) []byte {
		var buf bytes.Buffer
		for _, kind := range []corelite.SeriesKind{
			corelite.SeriesAllowed, corelite.SeriesReceived, corelite.SeriesCumulative,
		} {
			if err := corelite.WriteCSV(&buf, res, kind); err != nil {
				t.Fatalf("WriteCSV %v: %v", kind, err)
			}
		}
		return buf.Bytes()
	}

	plainRes, err := corelite.Run(base)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	observed := base
	reg := corelite.NewObsRegistry()
	observed.Obs = reg
	obsRes, err := corelite.Run(observed)
	if err != nil {
		t.Fatalf("observed run: %v", err)
	}

	sum := reg.Summary()
	if sum.Samples == 0 {
		t.Fatalf("observed flow run captured no samples: %+v", sum)
	}
	var solves uint64
	for _, h := range reg.Histograms() {
		solves += h.Count()
	}
	if solves == 0 {
		t.Error("observed flow run recorded no solve-time observations")
	}

	if !bytes.Equal(renderAll(plainRes), renderAll(obsRes)) {
		t.Error("flow-backend figure CSV output differs between obs-on and obs-off runs")
	}
	// The fluid engine samples gauges at existing epoch batches, so the
	// event count must not change at all.
	if obsRes.Events != plainRes.Events {
		t.Errorf("event count changed: %d with obs, %d without", obsRes.Events, plainRes.Events)
	}
}
