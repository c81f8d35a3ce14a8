package experiments

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/flowsim"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// runEngine runs a prepared scenario's model on the fluid engine as runFlow
// does — the scheme's control, default epoch and controllers, the
// scenario's schedules — but asks the oracle nothing.
func runEngine(t *testing.T, sc Scenario, m *flowsim.Model, reg *obs.Registry) *flowsim.Output {
	t.Helper()
	control := flowsim.ControlMarker
	if sc.Scheme == SchemeCSFQ {
		control = flowsim.ControlLoss
	}
	schedules := make([]workload.Schedule, len(m.Flows))
	for i, f := range m.Flows {
		schedules[i] = scheduleOf(sc, f.Index)
	}
	out, err := flowsim.Run(flowsim.Config{
		Model: m, Horizon: sc.Duration, SampleWindow: sc.SampleWindow,
		Control: control, Schedules: schedules, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireSameRates holds got to want bit for bit, flow for flow.
func requireSameRates(t *testing.T, what string, got, want map[int]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d flows, one-shot oracle %d", what, len(got), len(want))
	}
	for idx, w := range want {
		if g, ok := got[idx]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: flow %d expected rate %v (present %v), one-shot oracle %v", what, idx, g, ok, w)
		}
	}
}

// oracleScenarios is every figure under both schemes (a figure whose
// contracts CSFQ refuses keeps only Corelite), the 300-flow heavy-tailed
// fabric, whose run takes the incremental solver, and 300-flow chains with
// Corelite and CSFQ blasters and, under Corelite, contracts on the shared
// chain links.
func oracleScenarios(t *testing.T) []Scenario {
	var raws []Scenario
	for _, fig := range AllFigures(1) {
		for _, scheme := range []Scheme{SchemeCorelite, SchemeCSFQ} {
			sc := fig
			sc.Name = fig.Name + "-" + scheme.String()
			sc.Scheme, sc.Backend = scheme, BackendFlow
			if _, err := sc.prepare(); err == nil {
				raws = append(raws, sc)
			} else if scheme == SchemeCorelite {
				t.Fatalf("%s: %v", sc.Name, err)
			}
		}
	}
	for _, scheme := range []Scheme{SchemeCorelite, SchemeCSFQ} {
		raws = append(raws, scaleSpecRaw(t, scheme))
		for seed := int64(1); seed <= 2; seed++ {
			sc := Scenario{
				Name: fmt.Sprintf("chain-%v-seed%d", scheme, seed), Scheme: scheme, Backend: BackendFlow,
				Duration: 20 * time.Second, Seed: seed,
				Chain:        &ChainTopology{Cores: 9, Flows: 300},
				Unresponsive: map[int]float64{3: 40, 77: 25, 150: 60, 299: 10},
			}
			if scheme == SchemeCorelite {
				sc.MinRates = map[int]float64{5: 4, 40: 2.5, 41: 3, 200: 6}
			}
			raws = append(raws, sc)
		}
	}
	return raws
}

// TestOracleOnEngineSolverIsOneShot: the oracle solved on the water-filler
// a run leaves behind answers, bit for bit, what a fresh one-shot solver
// answers — for the full set (so Run's Result.ExpectedFullSet is the
// one-shot oracle's), for the last steady window's set that -check's
// fairness oracle asks about, and for every schedule phase (at most 24 per
// scenario, spread over the run).
func TestOracleOnEngineSolverIsOneShot(t *testing.T) {
	for _, raw := range oracleScenarios(t) {
		raw := raw
		t.Run(raw.Name, func(t *testing.T) {
			res, err := Run(raw)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := raw.prepare()
			if err != nil {
				t.Fatal(err)
			}
			m, err := buildFlowModel(sc)
			if err != nil {
				t.Fatal(err)
			}
			oneShot := func(active map[int]bool) map[int]float64 {
				want, err := expectedRates(sc, m, active, flowsim.NewSolver(m))
				if err != nil {
					t.Fatal(err)
				}
				return want
			}
			requireSameRates(t, "Result.ExpectedFullSet", res.ExpectedFullSet, oneShot(nil))

			solver := runEngine(t, sc, m, nil).Solver()
			ask := func(what string, active map[int]bool) {
				t.Helper()
				got, err := expectedRates(sc, m, active, solver)
				if err != nil {
					t.Fatal(err)
				}
				requireSameRates(t, what, got, oneShot(active))
			}
			ask("full set", nil)
			if _, _, active, ok := steadyWindow(sc, m.Flows); ok {
				ask("steady window", active)
			}
			bounds := phaseBounds(sc, m.Flows)
			stride := 1 + len(bounds)/24
			for i := 0; i+1 < len(bounds); i += stride {
				at := bounds[i] + (bounds[i+1]-bounds[i])/2
				if active := activeAt(sc, m.Flows, at); len(active) > 0 {
					ask("phase at "+at.String(), active)
				}
			}
		})
	}
}

// TestOracleLeavesEngineUntouched: a run whose oracle solves on the engine's
// water-filler (Run) has the outputs and the solver-tier and touched
// counters of the same run with no oracle at all, on the 300-flow fabric
// whose run takes the incremental solver, under both schemes and with the
// -check fairness oracle attached.
func TestOracleLeavesEngineUntouched(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCorelite, SchemeCSFQ} {
		raw := scaleSpecRaw(t, scheme)
		withOracle := obs.NewRegistry()
		raw.Obs = withOracle
		raw.Check = invariant.New(invariant.Config{FairnessTol: 1e9})
		res, err := Run(raw)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scaleSpecRaw(t, scheme).prepare()
		if err != nil {
			t.Fatal(err)
		}
		m, err := buildFlowModel(sc)
		if err != nil {
			t.Fatal(err)
		}
		alone := obs.NewRegistry()
		out := runEngine(t, sc, m, alone)

		counters := func(reg *obs.Registry) map[string]int64 {
			vals := make(map[string]int64)
			for _, c := range reg.Counters() {
				vals[c.Name()] = c.Value()
			}
			return vals
		}
		got, want := counters(withOracle), counters(alone)
		for _, name := range []string{obs.CtrSolveTouched, "fluid/solve/tier/regional-solves", "fluid/solve/tier/folds", "fluid/solve/tier/certificate-skips"} {
			if _, ok := want[name]; !ok {
				t.Fatalf("%v: counter %s not recorded", scheme, name)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d counters with the oracle, %d without", scheme, len(got), len(want))
		}
		for name, v := range want {
			if got[name] != v {
				t.Errorf("%v: counter %s = %d with the oracle, %d without", scheme, name, got[name], v)
			}
		}
		if res.Events != out.Events {
			t.Errorf("%v: %d events with the oracle, %d without", scheme, res.Events, out.Events)
		}
		for i := range out.Flows {
			fo, fr := &out.Flows[i], &res.Flows[i]
			for _, pair := range [][2]metrics.Series{
				{fr.AllowedRate, fo.Allowed}, {fr.ReceiveRate, fo.Rate}, {fr.Cumulative, fo.Cumulative},
			} {
				if len(pair[0]) != len(pair[1]) {
					t.Fatalf("%v: flow %d has %d samples with the oracle, %d without", scheme, fr.Index, len(pair[0]), len(pair[1]))
				}
				for k := range pair[1] {
					if pair[0][k].At != pair[1][k].At || math.Float64bits(pair[0][k].Value) != math.Float64bits(pair[1][k].Value) {
						t.Fatalf("%v: flow %d sample %d differs with the oracle", scheme, fr.Index, k)
					}
				}
			}
		}
	}
}
