package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/maxmin"
)

// buildProblem mirrors a model + demands into the oracle's Problem form.
// maxmin.Flow.Demand <= 0 means unbounded, matching the allocator's
// negative-demand convention (the oracle has no "demand exactly zero"
// state, so zero demands are excluded from the mirrored problem and
// asserted to zero directly).
func buildProblem(m *Model, active []bool, demand []float64) maxmin.Problem {
	p := maxmin.Problem{
		Capacity: make(map[string]float64, len(m.Links)),
		Flows:    make(map[string]maxmin.Flow, len(m.Flows)),
	}
	for _, l := range m.Links {
		p.Capacity[l.Name] = l.Capacity
	}
	for i, f := range m.Flows {
		if !active[i] || demand[i] == 0 {
			continue
		}
		links := make([]string, len(f.Links))
		for j, li := range f.Links {
			links[j] = m.Links[li].Name
		}
		d := demand[i]
		if d < 0 {
			d = 0 // unbounded in oracle form
		}
		p.Flows[strconv.Itoa(i)] = maxmin.Flow{Weight: f.Weight, Links: links, Demand: d}
	}
	return p
}

func checkAgainstOracle(t *testing.T, m *Model, active []bool, demand []float64) {
	t.Helper()
	a := newAllocator(m)
	out := make([]float64, len(m.Flows))
	a.solve(active, demand, out)

	alloc, err := maxmin.Solve(buildProblem(m, active, demand))
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for i := range m.Flows {
		want := 0.0
		if active[i] && demand[i] != 0 {
			want = alloc[strconv.Itoa(i)]
		}
		if math.Abs(out[i]-want) > 1e-6*math.Max(1, want) {
			t.Errorf("flow %d: allocator %.9g, oracle %.9g (demand %g)", i, out[i], want, demand[i])
		}
	}
	// Conservation: never above any link capacity.
	for li, l := range m.Links {
		sum := 0.0
		for i, f := range m.Flows {
			if !active[i] {
				continue
			}
			for _, fl := range f.Links {
				if fl == li {
					sum += out[i]
					break
				}
			}
		}
		if sum > float64(l.Capacity*(1+1e-9))+1e-9 {
			t.Errorf("link %s oversubscribed: %.9g > %.9g", l.Name, sum, l.Capacity)
		}
	}
}

// chainModel builds a linear chain with the given per-flow spans.
func chainModelForTest(t *testing.T, caps []float64, flows [][2]int, weights []float64) *Model {
	t.Helper()
	m := NewModel()
	for i, c := range caps {
		if _, err := m.AddLink(fmt.Sprintf("L%d", i), c); err != nil {
			t.Fatal(err)
		}
	}
	for i, span := range flows {
		links := make([]int, 0, span[1]-span[0])
		for l := span[0]; l < span[1]; l++ {
			links = append(links, l)
		}
		if err := m.AddFlow(Flow{Index: i + 1, Weight: weights[i], Links: links}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestAllocatorMatchesOracleDirected(t *testing.T) {
	// The paper topology's shape: three links, flows spanning prefixes and
	// suffixes, mixed weights and demand caps.
	m := chainModelForTest(t,
		[]float64{500, 500, 500},
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}},
		[]float64{1, 2, 3, 4, 5},
	)
	cases := [][]float64{
		{-1, -1, -1, -1, -1},      // unbounded: pure water-filling
		{10, -1, -1, -1, -1},      // one demand-capped flow
		{10, 20, 30, 40, 50},      // all capped below fair share
		{1000, 1000, -1, -1, 5},   // caps above fair share are inert
		{0, -1, -1, 0, -1},        // zero demands drop out
		{-1, 3000, 0.5, -1, 2500}, // mixed extremes
	}
	active := []bool{true, true, true, true, true}
	for _, demand := range cases {
		checkAgainstOracle(t, m, active, demand)
	}
	// Partial activity.
	checkAgainstOracle(t, m, []bool{true, false, true, false, true}, []float64{-1, -1, 40, -1, -1})
}

func TestAllocatorMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		nLinks := 1 + rng.Intn(8)
		caps := make([]float64, nLinks)
		for i := range caps {
			caps[i] = 50 + float64(500*rng.Float64())
		}
		nFlows := 1 + rng.Intn(12)
		spans := make([][2]int, nFlows)
		weights := make([]float64, nFlows)
		for i := range spans {
			a := rng.Intn(nLinks)
			b := a + 1 + rng.Intn(nLinks-a)
			spans[i] = [2]int{a, b}
			weights[i] = 0.5 + float64(5*rng.Float64())
		}
		m := chainModelForTest(t, caps, spans, weights)
		active := make([]bool, nFlows)
		demand := make([]float64, nFlows)
		for i := range active {
			active[i] = rng.Float64() < 0.85
			switch rng.Intn(3) {
			case 0:
				demand[i] = -1
			case 1:
				demand[i] = 600 * rng.Float64()
			default:
				demand[i] = 60 * rng.Float64()
			}
		}
		checkAgainstOracle(t, m, active, demand)
		if t.Failed() {
			t.Fatalf("iter %d: links=%v flows=%v weights=%v active=%v demand=%v",
				iter, caps, spans, weights, active, demand)
		}
	}
}

func TestAllocatorMinimums(t *testing.T) {
	// One bottleneck, one contracted flow: the floor is honored and the
	// excess is water-filled, matching maxmin.SolveWithMinimums.
	m := NewModel()
	li, err := m.AddLink("L", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddFlow(Flow{Index: 1, Weight: 1, MinRate: 60, Links: []int{li}}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddFlow(Flow{Index: 2, Weight: 1, Links: []int{li}}); err != nil {
		t.Fatal(err)
	}
	a := newAllocator(m)
	out := make([]float64, 2)

	a.solve([]bool{true, true}, []float64{-1, -1}, out)
	// Oracle: min 60 reserved, 40 split 20/20 → 80 / 20.
	if math.Abs(out[0]-80) > 1e-9 || math.Abs(out[1]-20) > 1e-9 {
		t.Errorf("contract split: got %v, want [80 20]", out)
	}

	// Contracted flow demands less than its floor: it gets its demand and
	// the rest water-fills.
	a.solve([]bool{true, true}, []float64{10, -1}, out)
	if math.Abs(out[0]-10) > 1e-9 || math.Abs(out[1]-90) > 1e-9 {
		t.Errorf("under-floor demand: got %v, want [10 90]", out)
	}
}
