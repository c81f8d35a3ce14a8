package proptest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/maxmin"
	"repro/internal/run"
	"repro/internal/topogen"
	"repro/internal/topospec"
	"repro/internal/trace"
)

// TestRandomScenariosHoldInvariants is the differential core of the suite:
// random topologies drive Corelite, weighted CSFQ, and the analytical
// solver through the same spec, and every structural invariant must hold
// on every run.
func TestRandomScenariosHoldInvariants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			spec, err := RandomSpec(rng, SpecParams{})
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range []experiments.Scheme{experiments.SchemeCorelite, experiments.SchemeCSFQ} {
				sc := RandomScenario(rng, scheme, spec, seed)
				res, err := experiments.Run(sc)
				if err != nil {
					t.Fatalf("%s: run: %v", scheme, err)
				}
				for _, v := range res.Violations {
					t.Errorf("%s: violation: %s", scheme, v)
				}
				if res.InvariantChecks == 0 {
					t.Fatalf("%s: checker ran zero checks", scheme)
				}
				// The analytical oracle must be feasible for the same spec
				// and assign every flow a positive rate.
				if len(res.ExpectedFullSet) != len(spec.Flows) {
					t.Fatalf("%s: oracle covers %d flows, want %d", scheme, len(res.ExpectedFullSet), len(spec.Flows))
				}
				for idx, rate := range res.ExpectedFullSet {
					if rate <= 0 {
						t.Errorf("%s: oracle rate for flow %d = %g, want > 0", scheme, idx, rate)
					}
				}
			}
		})
	}
}

// TestGeneratedTopologiesHoldInvariants extends the random-topology
// property to the parametric generators: randomized fat-tree, N-cloud,
// and mesh configs expand through Scenario.Generate, and every
// structural invariant must hold for both schemes on the expanded
// fabric. Re-marking relays are Corelite-only, so the N-cloud config
// drops them under CSFQ.
func TestGeneratedTopologiesHoldInvariants(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			cfgs := []topogen.Config{
				{Kind: topogen.KindFatTree, K: 4, Flows: 2 + rng.Intn(6)},
				{Kind: topogen.KindNClouds, Clouds: 2 + rng.Intn(2), CoresPerCloud: 2 + rng.Intn(2),
					Through: 1 + rng.Intn(2), Local: 1 + rng.Intn(2), Remark: true},
				{Kind: topogen.KindMesh, Nodes: 4 + rng.Intn(4), Degree: 2, Flows: 2 + rng.Intn(4)},
			}
			for _, cfg := range cfgs {
				for _, scheme := range []experiments.Scheme{experiments.SchemeCorelite, experiments.SchemeCSFQ} {
					cfg := cfg
					if scheme != experiments.SchemeCorelite {
						cfg.Remark = false
					}
					sc := experiments.Scenario{
						Name:     fmt.Sprintf("proptest-gen-%s-%s-%d", cfg.Kind, scheme, seed),
						Scheme:   scheme,
						Seed:     seed,
						Duration: time.Duration(4+rng.Intn(4)) * time.Second,
						Generate: &experiments.Generate{Topo: cfg},
						Check:    invariant.New(invariant.Config{Every: 500 * time.Millisecond}),
					}
					res, err := experiments.Run(sc)
					if err != nil {
						t.Fatalf("%s/%s: run: %v", cfg.Kind, scheme, err)
					}
					for _, v := range res.Violations {
						t.Errorf("%s/%s: violation: %s", cfg.Kind, scheme, v)
					}
					if res.InvariantChecks == 0 {
						t.Fatalf("%s/%s: checker ran zero checks", cfg.Kind, scheme)
					}
				}
			}
		})
	}
}

// randomProblem builds a random feasible max-min instance.
func randomProblem(rng *rand.Rand) maxmin.Problem {
	nLinks := 1 + rng.Intn(4)
	p := maxmin.Problem{
		Capacity: make(map[string]float64, nLinks),
		Flows:    make(map[string]maxmin.Flow),
	}
	links := make([]string, nLinks)
	for i := range links {
		links[i] = fmt.Sprintf("L%d", i)
		p.Capacity[links[i]] = 100 + float64(rng.Float64()*900)
	}
	nFlows := 1 + rng.Intn(8)
	for f := 0; f < nFlows; f++ {
		// A contiguous run of links models a path through the chain.
		first := rng.Intn(nLinks)
		last := first + rng.Intn(nLinks-first)
		fl := maxmin.Flow{Weight: 0.5 + float64(rng.Float64()*4)}
		for l := first; l <= last; l++ {
			fl.Links = append(fl.Links, links[l])
		}
		if rng.Intn(2) == 0 {
			fl.Demand = 50 + float64(rng.Float64()*500)
		}
		p.Flows[fmt.Sprintf("f%d", f)] = fl
	}
	return p
}

// TestMetamorphicWeightScaling: weights are ratios — multiplying every
// weight by the same positive constant must leave the allocation unchanged.
func TestMetamorphicWeightScaling(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		base, err := maxmin.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		for _, k := range []float64{0.25, 3, 17.5} {
			scaled := maxmin.Problem{Capacity: p.Capacity, Flows: make(map[string]maxmin.Flow, len(p.Flows))}
			for name, fl := range p.Flows {
				fl.Weight *= k
				scaled.Flows[name] = fl
			}
			got, err := maxmin.Solve(scaled)
			if err != nil {
				t.Fatalf("seed %d k=%g: solve: %v", seed, k, err)
			}
			for name, want := range base {
				if diff := got[name] - want; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("seed %d k=%g: flow %s rate %g, want %g (scaling changed the allocation)",
						seed, k, name, got[name], want)
				}
			}
		}
	}
}

// relabel renames every node in a generated spec text. The replacer tries
// old strings in argument order at each position, so two-digit names are
// listed first (I10 must not be clobbered by the I1 rule).
func relabel(text string) string {
	var pairs []string
	add := func(old, new string) { pairs = append(pairs, old, new) }
	for i := 20; i >= 1; i-- {
		add(fmt.Sprintf("I%d", i), fmt.Sprintf("ingress-%02d", i))
		add(fmt.Sprintf("C%d", i), fmt.Sprintf("mid-%02d", i))
	}
	add("SINK", "far-side")
	return strings.NewReplacer(pairs...).Replace(text)
}

// TestMetamorphicRelabeling: node names are identifiers, not semantics —
// the oracle's per-flow rates must survive a consistent renaming of every
// node in the topology.
func TestMetamorphicRelabeling(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		text := RandomSpecText(rng, SpecParams{})
		renamed := relabel(text)
		if renamed == text {
			t.Fatalf("seed %d: relabel changed nothing", seed)
		}
		rates := make([]map[int]float64, 0, 2)
		for _, src := range []string{text, renamed} {
			spec, err := topospec.Parse(strings.NewReader(src))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			sc := experiments.Scenario{
				Name: "relabel", Scheme: experiments.SchemeCorelite,
				Spec: spec, Seed: seed, Duration: 10 * time.Second,
			}
			got, err := experiments.ExpectedRatesAt(sc, time.Second)
			if err != nil {
				t.Fatalf("seed %d: oracle: %v", seed, err)
			}
			rates = append(rates, got)
		}
		if len(rates[0]) != len(rates[1]) {
			t.Fatalf("seed %d: flow sets differ: %d vs %d", seed, len(rates[0]), len(rates[1]))
		}
		for idx, want := range rates[0] {
			if diff := rates[1][idx] - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("seed %d: flow %d rate %g after relabel, want %g", seed, idx, rates[1][idx], want)
			}
		}
	}
}

// TestSerialParallelByteIdentical: the same randomized batch, with
// checkers attached, renders byte-identical CSVs whether it runs on one
// worker or four — the checker must not break the pool's determinism
// guarantee.
func TestSerialParallelByteIdentical(t *testing.T) {
	buildJobs := func() []run.Job {
		rng := rand.New(rand.NewSource(42))
		var jobs []run.Job
		for seed := int64(1); seed <= 3; seed++ {
			spec, err := RandomSpec(rng, SpecParams{})
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range []experiments.Scheme{experiments.SchemeCorelite, experiments.SchemeCSFQ} {
				sc := RandomScenario(rng, scheme, spec, seed)
				jobs = append(jobs, run.Job{Name: sc.Name, Scenario: sc})
			}
		}
		return jobs
	}
	render := func(workers int) []byte {
		pool := run.New(run.Config{Workers: workers})
		results, err := pool.Execute(context.Background(), buildJobs())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("job %s: %v", r.Job.Name, r.Err)
			}
			if r.Stats.Violations != 0 {
				t.Fatalf("job %s: %d violations: %v", r.Job.Name, r.Stats.Violations, r.Output.Violations)
			}
			if err := trace.WriteCSV(&buf, r.Output, trace.SeriesReceived); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("serial and parallel batches rendered different CSVs")
	}
}
