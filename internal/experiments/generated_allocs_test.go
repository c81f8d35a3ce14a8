package experiments

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/topogen"
	"repro/internal/trafficgen"
)

// TestGeneratedAllocsPerFlow pins that a generated flow costs the
// generate → resolve → fluid-build path no heap object of its own: every
// host name, via path, relay list, schedule and model link name is a view
// into one allocation sized up front. It measures, for each topology
// generator, both schedule generators and the direct fluid build of a
// fat-tree, the allocations added per flow between 64 and 192 flows, and
// holds them to 0.01 — one object per flow, or an append that grows with the
// flow count, fails it. Before the sized buffers the same measure read 5.5
// to 26.5 per flow for the topology generators, 0.9 to 1.0 for the schedule
// generators and 2.0 for the build.
//
// The counts are small enough that every map on the path (the workload's
// weight and schedule maps) fits one Go map table at both, so a map costs
// the same at both counts. Above about 900 entries Go adds a table per ~900
// entries to a map sized up front, so a flow-sized map reads about 0.001
// per flow between 2 000 and 8 000 flows: the schedule generators read
// 0.006–0.008 there, all of it map tables. TestDirectBuildAllocsAtScale
// holds the build to a budget that no such map fits in.
func TestGeneratedAllocsPerFlow(t *testing.T) {
	const lo, hi = 64, 192
	const budget = 0.01
	check := func(name string, allocs func(flows int) float64) {
		t.Helper()
		a, b := allocs(lo), allocs(hi)
		per := (b - a) / (hi - lo)
		t.Logf("%s: %.0f allocations at %d flows, %.0f at %d (%.4f per flow)", name, a, lo, b, hi, per)
		if per > budget {
			t.Errorf("%s: %.4f allocations per flow, over %v", name, per, budget)
		}
	}
	topos := map[string]func(flows int) string{
		"fattree": func(n int) string { return fmt.Sprintf("fattree:k=4,flows=%d", n) },
		"nclouds": func(n int) string { return fmt.Sprintf("nclouds:n=3,through=%d,local=2,remark=1", n-6) },
		"mesh":    func(n int) string { return fmt.Sprintf("mesh:nodes=32,flows=%d", n) },
	}
	for _, kind := range []string{"fattree", "nclouds", "mesh"} {
		check("topogen "+kind, func(flows int) float64 {
			cfg, err := topogen.Parse(topos[kind](flows))
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(2, func() {
				if _, err := cfg.Generate(1); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
	for _, traffic := range []string{"heavytail:unresp=0.01", "churn"} {
		check("trafficgen "+traffic, func(flows int) float64 {
			cfg, err := trafficgen.Parse(traffic)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Horizon = 90 * time.Second
			return testing.AllocsPerRun(2, func() {
				if _, err := cfg.Generate(1, flows); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
	check("direct fluid build", func(flows int) float64 {
		gen, err := ParseGenerate(topos["fattree"](flows), "")
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Scenario{Scheme: SchemeCorelite, Backend: BackendFlow, Duration: time.Second, Seed: 1, Generate: gen}.prepare()
		if err != nil {
			t.Fatal(err)
		}
		if !specFullyPinned(sc.Spec) {
			t.Fatal("the generated fat-tree does not take the direct build")
		}
		return testing.AllocsPerRun(2, func() {
			if _, err := buildFlowModel(sc); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestDirectBuildAllocsAtScale pins that the generate → direct fluid build →
// Model.Validate path of a generated fat-tree keeps no flow-sized Go map:
// between 2 000 and 8 000 flows it adds under 0.0005 allocations per flow.
// One map[int]bool over the flows reads 0.0037 there, and Spec.Resolve's
// node, link and flow-index maps 0.028, which is why the build takes its
// link ids from the generator; Model.Validate and the scenario's flow-key
// check find duplicates and strays without a map. normalize keeps a spec's
// weights in its flows alone and leaves Scenario.Weights nil.
func TestDirectBuildAllocsAtScale(t *testing.T) {
	const lo, hi = 2000, 8000
	const budget = 0.0005
	allocs := func(flows int) float64 {
		gen, err := ParseGenerate(fmt.Sprintf("fattree:k=8,flows=%d", flows), "")
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Scenario{Scheme: SchemeCorelite, Backend: BackendFlow, Duration: time.Second, Seed: 1, Generate: gen}.prepare()
		if err != nil {
			t.Fatal(err)
		}
		if !specFullyPinned(sc.Spec) || sc.generated.spec != sc.Spec || sc.generated.resolved == nil {
			t.Fatal("the generated fat-tree does not reach the direct build with its generator's dense form")
		}
		return testing.AllocsPerRun(2, func() {
			spec, resolved, err := gen.Topo.GenerateResolved(sc.Seed)
			if err != nil {
				t.Fatal(err)
			}
			sc.Spec, sc.generated = spec, generatedSpec{spec: spec, resolved: resolved}
			if err := sc.validateFlowKeys(); err != nil {
				t.Fatal(err)
			}
			m, err := buildFlowModel(sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(lo), allocs(hi)
	per := (b - a) / (hi - lo)
	t.Logf("%.0f allocations at %d flows, %.0f at %d (%.5f per flow)", a, lo, b, hi, per)
	if per > budget {
		t.Errorf("%.5f allocations per flow, over %v", per, budget)
	}
}
