package experiments

import (
	"testing"
	"time"

	"repro/internal/invariant"
)

// FuzzFlowSim drives the fluid backend end to end over randomly generated
// chain topologies: arbitrary core counts, flow counts, spans, capacities,
// cross-traffic-free links, both schemes. Whatever the topology, the engine
// must terminate without error, conserve fluid (delivered + lost ≈
// integrated rate, checked by the engine's own invariant bridge), respect
// capacity bounds, agree with the maxmin reference on its full-set oracle,
// and be deterministic. The seed corpus under
// testdata/fuzz/FuzzFlowSim pins the interesting shapes: a minimal 2-core
// chain, a single flow, a capacity squeeze, and a CSFQ churn-scale chain.
func FuzzFlowSim(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(40), uint8(4), uint16(500), uint16(3000), false)
	f.Add(int64(7), uint8(2), uint8(1), uint8(1), uint16(50), uint16(1000), true)
	f.Add(int64(31337), uint8(18), uint8(60), uint8(8), uint16(2000), uint16(2000), false)
	f.Add(int64(-9), uint8(5), uint8(25), uint8(3), uint16(120), uint16(4000), true)

	f.Fuzz(func(t *testing.T, seed int64, cores, flows, span uint8, capacity, durMs uint16, csfq bool) {
		// Clamp the raw fuzz bytes into the scenario's valid envelope; the
		// generator itself must reject nothing here, so every input exercises
		// the engine rather than the validator.
		nCores := 2 + int(cores)%32 // 2..33 cores (1..32 links)
		nFlows := 1 + int(flows)%64 // 1..64 flows
		maxSpan := 1 + int(span)%8  // 1..8 links per flow
		capPPS := 20 + float64(int(capacity)%5000)
		dur := time.Duration(200+int(durMs)%4000) * time.Millisecond

		sc := Scenario{
			Name:     "fuzz-chain",
			Duration: dur,
			Seed:     seed,
			Scheme:   SchemeCorelite,
			Backend:  BackendFlow,
			Chain: &ChainTopology{
				Cores:       nCores,
				Flows:       nFlows,
				CapacityPPS: capPPS,
				MaxSpan:     maxSpan,
			},
			// Conservation and bounds are hard invariants on any topology;
			// fairness needs a steady window and a converged controller, so
			// its tolerance is effectively disabled for arbitrary inputs.
			Check: invariant.New(invariant.Config{FairnessTol: 1e9}),
		}
		if csfq {
			sc.Scheme = SchemeCSFQ
		}

		res, err := Run(sc)
		if err != nil {
			t.Fatalf("flow backend failed on cores=%d flows=%d span=%d cap=%.0f dur=%v: %v",
				nCores, nFlows, maxSpan, capPPS, dur, err)
		}
		if len(res.Flows) != nFlows {
			t.Fatalf("got %d flows, want %d", len(res.Flows), nFlows)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("%d invariant violation(s), first: %v", len(res.Violations), res.Violations[0])
		}
		// Conservation/bounds checks run at measurement flushes, so a run
		// shorter than one sample window legitimately performs none.
		if res.InvariantChecks == 0 && dur >= res.SampleWindow {
			t.Fatal("invariant checker attached but performed zero checks")
		}
		for _, fl := range res.Flows {
			if fl.Delivered < 0 || fl.Losses < 0 {
				t.Fatalf("flow %d: negative accounting delivered=%d losses=%d", fl.Index, fl.Delivered, fl.Losses)
			}
		}

		// The oracle on the allocator against its reference, at the tolerance
		// flowsim's own differential uses for random inputs.
		norm, err := sc.normalize()
		if err != nil {
			t.Fatal(err)
		}
		fm, err := buildFlowModel(norm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceRates(norm, fm, nil)
		if err != nil {
			t.Fatalf("reference oracle: %v", err)
		}
		requireRatesMatch(t, "full set", res.ExpectedFullSet, want, 1e-6)

		// The engine must be a pure function of the scenario.
		res2, err := Run(sc)
		if err != nil {
			t.Fatalf("rerun failed: %v", err)
		}
		for i := range res.Flows {
			if res.Flows[i].Delivered != res2.Flows[i].Delivered || res.Flows[i].Losses != res2.Flows[i].Losses {
				t.Fatalf("nondeterministic flow %d: delivered %d vs %d, losses %d vs %d",
					res.Flows[i].Index, res.Flows[i].Delivered, res2.Flows[i].Delivered,
					res.Flows[i].Losses, res2.Flows[i].Losses)
			}
		}
	})
}
