package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// shortObsScenario is a truncated Fig5 run: long enough for slow-start
// exits, congestion epochs and feedback, short enough for a unit test.
func shortObsScenario(scheme Scheme) Scenario {
	sc := startupScenario(scheme, "obs-"+scheme.String(), 1)
	sc.Duration = 20 * time.Second
	return sc
}

func TestObsCoreliteTelemetry(t *testing.T) {
	sc := shortObsScenario(SchemeCorelite)
	reg := obs.NewRegistry()
	sc.Obs = reg
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}

	sum := reg.Summary()
	if sum.Samples == 0 {
		t.Fatal("sampler recorded no instants")
	}
	if sum.Samples != 200 {
		t.Fatalf("Summary.Samples = %d, want 200 (one per 100 ms of a 20 s run)", sum.Samples)
	}
	if sum.CongestionEpochs == 0 {
		t.Error("no congestion epochs counted in a converging startup run")
	}
	if sum.FeedbackSent == 0 {
		t.Error("no feedback counted")
	}
	if sum.PeakQueue <= 0 {
		t.Error("no queue length ever sampled above zero")
	}
	// epoch-end is not asserted: the startup run's bottleneck stays
	// congested through the horizon, so the epoch legitimately never
	// closes.
	for _, kind := range []string{"epoch-start", "marker-selected", "phase-change"} {
		if sum.ByKind[kind] == 0 {
			t.Errorf("no %s events recorded (ByKind: %v)", kind, sum.ByKind)
		}
	}

	// Gauges from every layer must exist: per-link queue, per-link F_n,
	// per-flow rate and phase.
	var haveQueue, haveFn, haveRate, havePhase bool
	for _, g := range reg.Gauges() {
		switch {
		case strings.HasPrefix(g.Name(), obs.PrefixQueue):
			haveQueue = true
		case strings.HasPrefix(g.Name(), obs.PrefixFn):
			haveFn = true
		case strings.HasPrefix(g.Name(), obs.PrefixRate):
			haveRate = true
		case strings.HasPrefix(g.Name(), obs.PrefixPhase):
			havePhase = true
		}
	}
	if !haveQueue || !haveFn || !haveRate || !havePhase {
		t.Errorf("missing gauge families: queue=%v fn=%v rate=%v phase=%v",
			haveQueue, haveFn, haveRate, havePhase)
	}

	// Events carry sim timestamps in order within a node (global order is
	// emission order, which is non-decreasing in time).
	events := reg.Events()
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("event %d at %v precedes event %d at %v", i, events[i].At, i-1, events[i-1].At)
		}
	}
}

func TestObsCSFQTelemetry(t *testing.T) {
	sc := shortObsScenario(SchemeCSFQ)
	reg := obs.NewRegistry()
	sc.Obs = reg
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
	sum := reg.Summary()
	if sum.ByKind["alpha-update"] == 0 {
		t.Errorf("no alpha-update events in a congested CSFQ run (ByKind: %v)", sum.ByKind)
	}
	var haveAlpha bool
	for _, g := range reg.Gauges() {
		if strings.HasPrefix(g.Name(), obs.PrefixAlpha) {
			haveAlpha = true
			break
		}
	}
	if !haveAlpha {
		t.Error("no alpha/<link> gauge registered")
	}
	if sum.Drops == 0 {
		t.Error("CSFQ startup run recorded no drops")
	}
}

// TestObsCSFQSeriesDeterministic runs one CSFQ scenario twice and demands
// byte-identical series.csv: the alpha/<link> columns follow the order the
// core routers adopt their ports in, which must not depend on map
// iteration.
func TestObsCSFQSeriesDeterministic(t *testing.T) {
	series := func() string {
		sc := shortObsScenario(SchemeCSFQ)
		sc.Duration = 2 * time.Second
		reg := obs.NewRegistry()
		sc.Obs = reg
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := reg.WriteSeriesCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := series(), series()
	if a != b {
		t.Errorf("two identical CSFQ runs wrote different series.csv; headers:\n%s\n%s",
			strings.SplitN(a, "\n", 2)[0], strings.SplitN(b, "\n", 2)[0])
	}
}

// TestObsSampleDisabled checks that a negative ObsSample keeps counters and
// events but records no time series.
func TestObsSampleDisabled(t *testing.T) {
	sc := shortObsScenario(SchemeCorelite)
	reg := obs.NewRegistry()
	sc.Obs = reg
	sc.ObsSample = -1
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
	sum := reg.Summary()
	if sum.Samples != 0 {
		t.Errorf("sampling disabled but %d samples recorded", sum.Samples)
	}
	if sum.Events == 0 || sum.FeedbackSent == 0 {
		t.Errorf("events/counters should still record with sampling off: %+v", sum)
	}
}

// TestObsFlowBuildRow: under a registry, a flow-backend run's self-profile
// opens with the model build, one event, ahead of the engine's layers, so
// perf.csv attributes the build's wall time too.
func TestObsFlowBuildRow(t *testing.T) {
	gen, err := ParseGenerate("fattree:k=4,flows=8", "")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sc := Scenario{Scheme: SchemeCorelite, Backend: BackendFlow, Duration: 3 * time.Second, Seed: 1, Generate: gen, Obs: reg}
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
	perf := reg.Perf()
	var kinds []string
	for _, p := range perf {
		kinds = append(kinds, p.Kind)
	}
	if got := strings.Join(kinds, ","); got != "build,epoch,solve-full,solve-incremental,flush" {
		t.Fatalf("perf rows %s, want the build row ahead of the engine's", got)
	}
	if b := perf[0]; b.Events != 1 || b.Sampled != 1 || b.WallSeconds <= 0 {
		t.Errorf("build row = %+v, want one timed event", b)
	}
}
