package experiments

import (
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/flowsim"
	"repro/internal/maxmin"
	"repro/internal/topology"
)

// referenceRates is the oracle's reference: the same question expectedRates
// answers, posed to the map-based maxmin solver. The problem is built here,
// from the capacity graph, so the production oracle and its reference share
// nothing but the graph.
func referenceRates(sc Scenario, m *flowsim.Model, active map[int]bool) (map[int]float64, error) {
	p := maxmin.Problem{
		Capacity: make(map[string]float64, len(m.Links)),
		Flows:    make(map[string]maxmin.Flow, len(m.Flows)),
	}
	for _, l := range m.Links {
		p.Capacity[l.Name] = l.Capacity
	}
	mins := make(map[string]float64)
	out := make(map[int]float64, len(m.Flows))
	for _, f := range m.Flows {
		if active != nil && !active[f.Index] {
			continue
		}
		if f.FixedDemand > 0 && sc.Scheme == SchemeCorelite {
			for _, li := range f.Links {
				name := m.Links[li].Name
				p.Capacity[name] = math.Max(0, p.Capacity[name]-f.FixedDemand)
			}
			out[f.Index] = f.FixedDemand
			continue
		}
		links := make([]string, len(f.Links))
		for j, li := range f.Links {
			links[j] = m.Links[li].Name
		}
		key := strconv.Itoa(f.Index)
		// A CSFQ blaster is policed to its share but never above its
		// blast rate: FixedDemand is its demand cap (0 = unbounded).
		p.Flows[key] = maxmin.Flow{Weight: f.Weight, Links: links, Demand: f.FixedDemand}
		if f.MinRate > 0 {
			mins[key] = f.MinRate
		}
	}
	alloc, err := maxmin.SolveWithMinimums(p, mins)
	if err != nil {
		return nil, err
	}
	for key, r := range alloc {
		idx, err := strconv.Atoi(key)
		if err != nil {
			return nil, err
		}
		out[idx] = r
	}
	return out, nil
}

// requireRatesMatch holds got to want within tol·max(1, rate), flow for flow.
func requireRatesMatch(t *testing.T, what string, got, want map[int]float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: oracle covers %d flows, reference %d", what, len(got), len(want))
	}
	for idx, w := range want {
		g, ok := got[idx]
		if !ok {
			t.Fatalf("%s: flow %d missing from the oracle", what, idx)
		}
		if math.Abs(g-w) > tol*math.Max(1, math.Abs(w)) {
			t.Errorf("%s: flow %d expected rate %.12g, reference %.12g", what, idx, g, w)
		}
	}
}

// TestExpectedRatesMatchMaxmin holds the one oracle to its reference
// everywhere it is used: the full set and every schedule phase of every
// figure, contracts, cross traffic, unresponsive blasts under both schemes'
// conventions, and a 300-flow fabric with heavy-tailed weights and blasts —
// through expectedRates and through the public ExpectedRatesAt.
func TestExpectedRatesMatchMaxmin(t *testing.T) {
	scenarios := AllFigures(1)
	scenarios = append(scenarios,
		Scenario{
			Name: "min-rate-dumbbell", Scheme: SchemeCorelite, Duration: 120 * time.Second,
			NumFlows: 3, MinRates: map[int]float64{1: 300}, Dumbbell: true,
		},
		Scenario{
			Name: "cross-traffic", Scheme: SchemeCorelite, Duration: 120 * time.Second,
			NumFlows: 12, Weights: map[int]float64{1: 1, 2: 2, 9: 3},
			Cross: []CrossTraffic{
				{Link: "C1->C2", Rate: 200, MeanOn: 500 * time.Millisecond, MeanOff: 500 * time.Millisecond},
				{Link: "C2->C3", Rate: 120},
			},
		},
	)
	for _, scheme := range []Scheme{SchemeCorelite, SchemeCSFQ} {
		scenarios = append(scenarios, Scenario{
			Name: "blasts-" + scheme.String(), Scheme: scheme, Duration: 60 * time.Second,
			NumFlows: 20, Weights: topology.WeightsFig3(), DefaultWeight: 2,
			Unresponsive: map[int]float64{3: 180, 9: 90, 14: 240},
		}, scaleSpecRaw(t, scheme))
	}
	for _, raw := range scenarios {
		raw := raw
		t.Run(raw.Name, func(t *testing.T) {
			sc, err := raw.normalize()
			if err != nil {
				t.Fatal(err)
			}
			m, err := buildFlowModel(sc)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, got map[int]float64, active map[int]bool) {
				t.Helper()
				want, err := referenceRates(sc, m, active)
				if err != nil {
					t.Fatalf("%s: reference: %v", what, err)
				}
				requireRatesMatch(t, what, got, want, 1e-9)
			}
			full, err := expectedRates(sc, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("full set", full, nil)
			// Every phase of every figure (at most 64); the 300-flow
			// heavy-tailed fabric has 410 and is sampled.
			bounds := phaseBounds(sc, m.Flows)
			stride := 1 + len(bounds)/66
			for i := 0; i+1 < len(bounds); i += stride {
				at := bounds[i] + (bounds[i+1]-bounds[i])/2
				active := activeAt(sc, m.Flows, at)
				if len(active) == 0 {
					continue
				}
				got, err := ExpectedRatesAt(raw, at)
				if err != nil {
					t.Fatalf("ExpectedRatesAt(%v): %v", at, err)
				}
				check("phase at "+at.String(), got, active)
			}
		})
	}
}
