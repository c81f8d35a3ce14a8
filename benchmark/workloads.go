package main

import (
	"fmt"
	"time"

	corelite "repro"
)

// workloadDef is one named input set. ops builds the scenarios of one run from
// the run's base seed; every scenario is a pure description — no engine
// knob, registry, checker or tracer is ever set here, so timed runs measure
// what a user gets by default.
type workloadDef struct {
	name string
	why  string
	// flow marks the fluid-backend workloads, whose traced run is followed
	// by a staged replay through the public flowsim API.
	flow bool
	// tol is the invariant checker's fairness tolerance for the traced run;
	// 0 means per-scenario corelite.FigureFairnessTol.
	tol float64
	// oracle marks paper-scale workloads on which ExpectedRatesAt is usable.
	oracle bool
	// ops returns the scenarios of one run. scale < 1 shrinks the workload
	// for the package tests; the benchmark itself always passes 1.
	ops func(seed int64, scale float64) ([]corelite.Scenario, error)
}

// opSeed derives the scenario seed of op i: the -seed argument is the only
// input that changes the work, and the program under test sees only the
// generated scenario.
func opSeed(seed int64, workload string, i int) int64 {
	return corelite.DeriveSeed(seed, fmt.Sprintf("%s/%d", workload, i))
}

func scaleDur(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale).Round(time.Second)
}

func scaleInt(n int, scale float64, floor int) int {
	if v := int(float64(n) * scale); v > floor {
		return v
	}
	return floor
}

func chainOps(name string, scheme corelite.Scheme) func(int64, float64) ([]corelite.Scenario, error) {
	return func(seed int64, scale float64) ([]corelite.Scenario, error) {
		sc := corelite.Fig3Scenario(opSeed(seed, name, 0))
		sc.Scheme = scheme
		if scale < 1 {
			// The late cohort's [250 s, 500 s) window does not fit a
			// shortened horizon: the test pass wants the shape, not the
			// dynamics.
			sc.Duration = scaleDur(sc.Duration, scale)
			sc.Schedules = nil
		}
		return []corelite.Scenario{sc}, nil
	}
}

func generated(name, topo, traffic string, base corelite.Scenario) func(int64, float64) ([]corelite.Scenario, error) {
	return func(seed int64, scale float64) ([]corelite.Scenario, error) {
		gen, err := corelite.ParseGenerate(topo, traffic)
		if err != nil {
			return nil, err
		}
		if scale < 1 {
			// Only the topology shrinks: the traffic generator needs its
			// 45 s settle tail inside the horizon.
			gen.Topo.K = 4
			gen.Topo.Flows = scaleInt(gen.Topo.Flows, scale, 8)
		}
		sc := base
		sc.Name = name
		sc.Scheme = corelite.SchemeCorelite
		sc.Seed = opSeed(seed, name, 0)
		sc.Generate = gen
		return []corelite.Scenario{sc}, nil
	}
}

// figSeeds is how many seed replicas of the 12-figure batch one flow_figs
// run sweeps (120 ops).
const figSeeds = 10

// figBlastRate caps the unresponsive blast rate of the at-scale fairness
// figure inside flow_figs. At the figure's own 350 pkt/s, two of its four
// blasters landing on one 500 pkt/s fabric link put the fluid model above
// capacity (Corelite cannot police them), which the invariant checker rightly
// reports — about one derived seed in five. At 120 pkt/s all four fit on one
// link, so no seed produces a failing op.
const figBlastRate = 120

var workloads = []workloadDef{
	{
		name:   "pkt_chain_corelite",
		why:    "Paper Fig. 2 chain under Corelite: shallow event queue, so netem link chain, core router/edge, adapt and metrics dominate.",
		tol:    0.10,
		oracle: true,
		ops:    chainOps("pkt_chain_corelite", corelite.SchemeCorelite),
	},
	{
		name:   "pkt_chain_csfq",
		why:    "Same chain under CSFQ: same substrate, different per-hop layer; a core change must not move it, a csfq change moves only it.",
		tol:    0.10,
		oracle: true,
		ops:    chainOps("pkt_chain_csfq", corelite.SchemeCSFQ),
	},
	{
		name: "pkt_fattree",
		why:  "256 flows on 6-hop k=8 fat-tree paths keep thousands of events pending: the scheduler-queue and packet-arena workload.",
		tol:  2.5,
		ops: generated("pkt_fattree", "fattree:k=8,flows=256", "heavytail:unresp=0.05,urate=350",
			corelite.Scenario{Duration: 60 * time.Second}),
	},
	{
		name: "flow_fattree100k",
		flow: true,
		why:  "100k heavy-tailed flows on the fluid engine: the scale and memory target, dominated by build, epoch sweep and flush, not solves.",
		tol:  2.5,
		ops: generated("flow_fattree100k", "fattree:k=8,flows=100000,fabric=400Mbps",
			"heavytail:elephants=0.05,eweight=4,unresp=0.01,urate=350",
			corelite.Scenario{Duration: 90 * time.Second, SampleWindow: 5 * time.Second, Backend: corelite.BackendFlow}),
	},
	{
		name: "flow_chain10k",
		flow: true,
		why:  "10k always-on flows over a 1000-core chain: every epoch moves every demand, so nearly all solves fall back to the full tier.",
		tol:  2.5,
		ops: func(seed int64, scale float64) ([]corelite.Scenario, error) {
			flows := scaleInt(10000, scale, 300)
			return []corelite.Scenario{{
				Name:     "flow_chain10k",
				Scheme:   corelite.SchemeCorelite,
				Backend:  corelite.BackendFlow,
				Duration: scaleDur(60*time.Second, scale),
				Seed:     opSeed(seed, "flow_chain10k", 0),
				NumFlows: flows, // what Run derives from Chain; Validate wants it up front
				Chain:    &corelite.ChainTopology{Cores: scaleInt(1000, scale, 20), Flows: flows},
			}}, nil
		},
	},
	{
		name:   "flow_figs",
		flow:   true,
		oracle: true,
		why:    "All 12 figure scenarios x 10 seeds on the fluid engine: small models where per-run fixed cost (oracle, cloud build) dominates.",
		ops: func(seed int64, scale float64) ([]corelite.Scenario, error) {
			var out []corelite.Scenario
			for s := 0; s < scaleInt(figSeeds, scale, 1); s++ {
				for _, sc := range corelite.AllFigures(opSeed(seed, "flow_figs", s)) {
					sc.Backend = corelite.BackendFlow
					if g := sc.Generate; g != nil && g.Traffic != nil && g.Traffic.UnresponsiveRate > figBlastRate {
						g.Traffic.UnresponsiveRate = figBlastRate
					}
					out = append(out, sc)
				}
			}
			return out, nil
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
