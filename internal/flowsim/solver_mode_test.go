package flowsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// churnChainConfig builds a congested chain with staggered arrivals and
// departures, returning a Config ready to run under the given solver mode.
func churnChainConfig(t *testing.T, solver solverMode, ctl Control) Config {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m := NewModel()
	nLinks := 5
	for i := 0; i < nLinks; i++ {
		if _, err := m.AddLink("L"+string(rune('A'+i)), 150); err != nil {
			t.Fatal(err)
		}
	}
	nFlows := 24
	scheds := make([]workload.Schedule, nFlows)
	for i := 0; i < nFlows; i++ {
		a := rng.Intn(nLinks)
		b := a + 1 + rng.Intn(nLinks-a)
		links := make([]int, 0, b-a)
		for l := a; l < b; l++ {
			links = append(links, l)
		}
		f := Flow{Index: i + 1, Weight: float64(1 + i%4), Links: links}
		if i%6 == 5 {
			f.MinRate = 5
		}
		if err := m.AddFlow(f); err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 {
			// Two thirds of the flows churn: arrive staggered, some leave.
			sch := workload.Schedule{{Start: time.Duration(i) * 700 * time.Millisecond}}
			if i%2 == 0 {
				sch[0].Stop = time.Duration(15+i) * time.Second
			}
			scheds[i] = sch
		}
	}
	return Config{
		Model:     m,
		Horizon:   30 * time.Second,
		Control:   ctl,
		solver:    solver,
		Schedules: scheds,
	}
}

// TestSolverIncrementalMatchesFullEngine runs the same churny congested
// scenario end to end under the forced incremental solver and the monolithic
// reference, and compares the outputs. Under marker control the congestion
// indications are a function of demands alone, so the demand (Allowed)
// trajectory is solver-independent and must match bitwise; the achieved-rate
// series inherit only the per-solve agreement bound.
func TestSolverIncrementalMatchesFullEngine(t *testing.T) {
	full, err := Run(churnChainConfig(t, solverFull, ControlMarker))
	if err != nil {
		t.Fatal(err)
	}
	incr, err := Run(churnChainConfig(t, solverIncremental, ControlMarker))
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-8
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(1, math.Abs(b)) }
	for i := range full.Flows {
		ff, fi := full.Flows[i], incr.Flows[i]
		if !reflect.DeepEqual(ff.Allowed, fi.Allowed) {
			t.Fatalf("flow %d: Allowed series diverged between solver modes", i)
		}
		for s := range ff.Rate {
			if rel(fi.Rate[s].Value, ff.Rate[s].Value) > tol {
				t.Fatalf("flow %d sample %d: rate %.12g (incremental) vs %.12g (full)",
					i, s, fi.Rate[s].Value, ff.Rate[s].Value)
			}
		}
		if rel(fi.Delivered, ff.Delivered) > tol || rel(fi.Lost, ff.Lost) > tol {
			t.Fatalf("flow %d: delivered/lost %.12g/%.12g (incremental) vs %.12g/%.12g (full)",
				i, fi.Delivered, fi.Lost, ff.Delivered, ff.Lost)
		}
	}
}

// TestSolverAutoIsFullAtSmallScale pins the figure-safety property: below
// IncrementalMinFlows, solverAuto takes the monolithic path, so every
// small-model run — in particular all paper figures — is byte-identical
// whether or not the incremental machinery exists.
func TestSolverAutoIsFullAtSmallScale(t *testing.T) {
	for _, ctl := range []Control{ControlMarker, ControlLoss} {
		auto, err := Run(churnChainConfig(t, solverAuto, ctl))
		if err != nil {
			t.Fatal(err)
		}
		full, err := Run(churnChainConfig(t, solverFull, ctl))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(auto, full) {
			t.Fatalf("%v: solverAuto output differs from solverFull on a small model", ctl)
		}
	}
}

// TestSolverTierCounters checks the fluid/solve/tier/* counters against the
// solve histograms they refine: every full solve after the first is an early
// or a late fallback, every committed region is one incremental solve, and
// the churny chain exercises skips, folds and regional solves.
func TestSolverTierCounters(t *testing.T) {
	cfg := churnChainConfig(t, solverIncremental, ControlMarker)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	tier := func(name string) int64 { return reg.Counter("fluid/solve/tier/" + name).Value() }
	fulls := reg.Histogram(obs.HistSolveFull, "s").Count()
	if got := 1 + tier("fallback-early") + tier("fallback-late"); got != int64(fulls) {
		t.Errorf("1 + early + late fallbacks = %d, full solves %d", got, fulls)
	}
	if regional, incr := tier("regional-solves"), reg.Histogram(obs.HistSolveIncremental, "s").Count(); regional == 0 || regional > int64(incr) {
		t.Errorf("regional solves %d, want 1..%d incremental solves", regional, incr)
	}
	for _, name := range []string{"certificate-skips", "folds"} {
		if tier(name) == 0 {
			t.Errorf("no %s counted", name)
		}
	}
}

// TestSelfProfile checks the engine's perf rows: one per layer in order,
// with exact counts (every epoch and flush of the horizon, and as many
// solves of each tier as the solve histograms observed), every event timed,
// and an Output equal to the unobserved run's.
func TestSelfProfile(t *testing.T) {
	cfg := churnChainConfig(t, solverIncremental, ControlMarker)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("the registry changes the Output")
	}
	epochs := uint64(cfg.Horizon / (100 * time.Millisecond))
	want := []struct {
		kind   string
		events uint64
	}{
		{"epoch", epochs},
		{"solve-full", reg.Histogram(obs.HistSolveFull, "s").Count()},
		{"solve-incremental", reg.Histogram(obs.HistSolveIncremental, "s").Count()},
		{"flush", uint64(cfg.Horizon / time.Second)},
	}
	perf := reg.Perf()
	if len(perf) != len(want) {
		t.Fatalf("%d perf rows, want %d: %+v", len(perf), len(want), perf)
	}
	for k, w := range want {
		p := perf[k]
		if p.Kind != w.kind || p.Events != w.events || p.Sampled != p.Events || p.WallSeconds < 0 {
			t.Errorf("perf row %d = %+v, want kind %q with %d events, all sampled", k, p, w.kind, w.events)
		}
	}
	if perf[0].WallSeconds <= 0 || perf[2].Events == 0 {
		t.Errorf("epochs timed at %gs, %d incremental solves; want both positive", perf[0].WallSeconds, perf[2].Events)
	}
}
