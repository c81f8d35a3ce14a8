package run

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/topogen"
	"repro/internal/trafficgen"
)

// generatedBatch builds a mixed batch of parametric scenarios — one per
// generator family, with a workload model layered on the fat-tree — with
// per-job seeds derived from one base seed exactly the way cmd/coresim
// does for repeated runs.
func generatedBatch(base int64) []Job {
	scs := []experiments.Scenario{
		{
			Name:     "gen-fattree-heavytail",
			Scheme:   experiments.SchemeCorelite,
			Duration: 30 * time.Second,
			Generate: &experiments.Generate{
				Topo: topogen.Config{Kind: topogen.KindFatTree, K: 4, Flows: 8},
				Traffic: &trafficgen.Config{
					Kind:             trafficgen.KindHeavyTail,
					Settle:           10 * time.Second,
					UnresponsiveFrac: 0.15,
					UnresponsiveRate: 300,
				},
			},
		},
		{
			Name:     "gen-nclouds",
			Scheme:   experiments.SchemeCorelite,
			Duration: 20 * time.Second,
			Generate: &experiments.Generate{
				Topo: topogen.Config{Kind: topogen.KindNClouds, Clouds: 3, CoresPerCloud: 3, Through: 2, Local: 2, Remark: true},
			},
		},
		{
			Name:     "gen-mesh-churn",
			Scheme:   experiments.SchemeCSFQ,
			Duration: 30 * time.Second,
			Generate: &experiments.Generate{
				Topo:    topogen.Config{Kind: topogen.KindMesh, Nodes: 6, Degree: 2, Flows: 6},
				Traffic: &trafficgen.Config{Kind: trafficgen.KindChurn, Settle: 10 * time.Second, ChurnPeriod: 5 * time.Second},
			},
		},
	}
	for i := range scs {
		scs[i].Seed = DeriveSeed(base, scs[i].Name)
	}
	return FromScenarios(scs...)
}

// TestGeneratedParallelMatchesSerial extends the engine determinism
// contract to generated scenarios: expanding a fat-tree/N-cloud/mesh
// parametrically inside a pool worker draws only on the job's derived
// seed, so one worker and eight render byte-identical CSVs.
func TestGeneratedParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full generated-scenario runs; skipped in -short")
	}
	jobs := generatedBatch(1)
	serial, err := New(Config{Workers: 1}).Execute(context.Background(), jobs)
	if err != nil {
		t.Fatalf("serial execute: %v", err)
	}
	parallel, err := New(Config{Workers: 8}).Execute(context.Background(), jobs)
	if err != nil {
		t.Fatalf("parallel execute: %v", err)
	}
	a, b := render(t, serial), render(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("parallel generated output differs from serial (%d vs %d bytes)", len(a), len(b))
	}

	// The flow backend expands the same generated scenarios through the
	// same normalize path; its fluid solver is deterministic too.
	flowJobs := generatedBatch(1)
	for i := range flowJobs {
		flowJobs[i].Scenario.Backend = experiments.BackendFlow
	}
	flowSerial, err := New(Config{Workers: 1}).Execute(context.Background(), flowJobs)
	if err != nil {
		t.Fatalf("flow serial execute: %v", err)
	}
	flowParallel, err := New(Config{Workers: 8}).Execute(context.Background(), flowJobs)
	if err != nil {
		t.Fatalf("flow parallel execute: %v", err)
	}
	fa, fb := render(t, flowSerial), render(t, flowParallel)
	if !bytes.Equal(fa, fb) {
		t.Fatalf("flow-backend parallel generated output differs from serial (%d vs %d bytes)", len(fa), len(fb))
	}

	// Across backends byte identity is impossible (different integrators);
	// the contract is tolerance equality of the steady-state rates, same
	// as the figure differential. Compare mean receive rates over the
	// second half of each run.
	for i, pr := range serial {
		fr := flowSerial[i]
		half := jobs[i].Scenario.Duration / 2
		to := jobs[i].Scenario.Duration
		for _, pf := range pr.Output.Flows {
			pm := pf.ReceiveRate.MeanOver(half, to)
			if pm <= 0 {
				continue
			}
			ff := fr.Output.Flow(pf.Index)
			if ff == nil {
				t.Fatalf("%s: flow backend missing flow %d", jobs[i].Name, pf.Index)
			}
			fm := ff.ReceiveRate.MeanOver(half, to)
			if d := math.Abs(fm-pm) / pm; d > 0.5 {
				t.Errorf("%s flow %d: packet %.1f vs flow %.1f pkt/s (%.0f%% apart)",
					jobs[i].Name, pf.Index, pm, fm, 100*d)
			}
		}
	}
}
