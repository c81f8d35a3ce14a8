package flowsim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// incrHarness drives an incremental allocator and its full solve twin over
// the same mutating inputs, checking agreement after every step.
type incrHarness struct {
	t      *testing.T
	m      *Model
	inc    *allocator
	full   *allocator
	active []bool
	demand []float64
	incOut []float64 // persistent across calls (incremental contract)
	refOut []float64
}

func newIncrHarness(t *testing.T, m *Model) *incrHarness {
	h := &incrHarness{
		t:      t,
		m:      m,
		inc:    newAllocator(m),
		full:   newAllocator(m),
		active: make([]bool, len(m.Flows)),
		demand: make([]float64, len(m.Flows)),
		incOut: make([]float64, len(m.Flows)),
		refOut: make([]float64, len(m.Flows)),
	}
	h.inc.enableIncremental()
	return h
}

// step applies the staged inputs, listing changed as the dirty set, and
// compares the incremental solution against a fresh full solve.
func (h *incrHarness) step(changed []int32) {
	h.t.Helper()
	h.inc.solveIncremental(h.active, h.demand, h.incOut, changed)
	h.full.solve(h.active, h.demand, h.refOut)
	const tol = 1e-9
	for i := range h.m.Flows {
		want := h.refOut[i]
		if math.Abs(h.incOut[i]-want) > tol*math.Max(1, math.Abs(want)) {
			h.t.Fatalf("flow %d: incremental %.12g, full %.12g (active=%v demand=%g weight=%g)",
				i, h.incOut[i], want, h.active[i], h.demand[i], h.m.Flows[i].Weight)
		}
	}
	// The kernel's standing invariant: between fills — full or regional —
	// every flow reads frozen and every link reads done.
	for i, frozen := range h.inc.frozen {
		if !frozen {
			h.t.Fatalf("flow %d left unfrozen after the solve", i)
		}
	}
	for li, done := range h.inc.linkDone {
		if !done {
			h.t.Fatalf("link %d left open after the solve", li)
		}
	}
	for li, l := range h.m.Links {
		sum, floors := 0.0, 0.0
		for _, fi := range h.inc.flowsOn(li) {
			if h.active[fi] {
				sum += h.incOut[fi]
				floors += h.m.Flows[fi].MinRate
			}
		}
		// Min-rate floors are honored unconditionally (SolveWithMinimums
		// semantics), so an infeasible floor set legitimately exceeds capacity.
		limit := math.Max(l.Capacity, floors)
		if sum > float64(limit*(1+1e-9))+1e-9 {
			h.t.Fatalf("link %s oversubscribed by incremental solve: %.12g > %.12g", l.Name, sum, limit)
		}
	}
}

// randomChainModel builds a chain model with random spans, weights and a
// sprinkling of min-rate contracts.
func randomChainModel(t *testing.T, rng *rand.Rand) *Model {
	t.Helper()
	nLinks := 2 + rng.Intn(10)
	m := NewModel()
	for i := 0; i < nLinks; i++ {
		if _, err := m.AddLink("L"+string(rune('A'+i)), 100+float64(900*rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	nFlows := 4 + rng.Intn(20)
	for i := 0; i < nFlows; i++ {
		a := rng.Intn(nLinks)
		b := a + 1 + rng.Intn(nLinks-a)
		links := make([]int, 0, b-a)
		for l := a; l < b; l++ {
			links = append(links, l)
		}
		f := Flow{Index: i + 1, Weight: 0.5 + float64(5*rng.Float64()), Links: links}
		if rng.Float64() < 0.2 {
			f.MinRate = 30 * rng.Float64()
		}
		if err := m.AddFlow(f); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestIncrementalMatchesFullRandomSequences is the differential property
// suite: random models, then long random event sequences — arrivals,
// departures, demand moves, weight churn — with the incremental solution
// checked against a monolithic solve after every single event batch.
func TestIncrementalMatchesFullRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 60; iter++ {
		m := randomChainModel(t, rng)
		h := newIncrHarness(t, m)
		n := len(m.Flows)

		// Initial membership.
		changed := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.7 {
				h.active[i] = true
				h.demand[i] = randomDemand(rng)
				changed = append(changed, int32(i))
			}
		}
		h.step(changed)

		for ev := 0; ev < 40; ev++ {
			changed = changed[:0]
			k := 1 + rng.Intn(4)
			for j := 0; j < k; j++ {
				i := rng.Intn(n)
				switch rng.Intn(10) {
				case 0: // departure
					h.active[i] = false
					h.demand[i] = 0
				case 1: // arrival (or demand reset while active)
					h.active[i] = true
					h.demand[i] = randomDemand(rng)
				case 2: // weight churn
					m.Flows[i].Weight = 0.5 + float64(5*rng.Float64())
				case 3: // small additive probe (the LIMD +α shape)
					if h.active[i] && h.demand[i] >= 0 {
						h.demand[i] += 1
					}
				default: // demand move
					if h.active[i] {
						h.demand[i] = randomDemand(rng)
					}
				}
				changed = append(changed, int32(i))
			}
			h.step(changed)
		}
	}
}

func randomDemand(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return -1 // unbounded
	case 1:
		return 1500 * rng.Float64() // above most fair shares
	default:
		return 80 * rng.Float64() // mostly demand-capped
	}
}

// TestIncrementalFoldsAreBitwise pins the exactness claim for the two fast
// tiers: on an unsaturated model, demand probes, under-slack arrivals and
// departures (folds) and inert bottlenecked-demand moves (certificate
// skips) must reproduce the monolithic solution bit for bit, because those
// event reorderings produce no differing float arithmetic in the full
// solver either.
func TestIncrementalFoldsAreBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := chainModelForTest(t,
		[]float64{1e4, 1e4, 1e4, 1e4},
		[][2]int{{0, 2}, {1, 3}, {2, 4}, {0, 4}, {1, 2}, {3, 4}},
		[]float64{1, 2, 3, 1, 2, 5},
	)
	h := newIncrHarness(t, m)
	n := len(m.Flows)
	changed := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		h.active[i] = true
		h.demand[i] = 1 + float64(10*rng.Float64())
		changed = append(changed, int32(i))
	}
	h.step(changed) // first call: tracked full solve

	for ev := 0; ev < 200; ev++ {
		changed = changed[:0]
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.5 && h.active[i] {
				h.demand[i] += float64(rng.Float64()) // stays far below capacity: folds
				changed = append(changed, int32(i))
			}
		}
		if rng.Float64() < 0.1 {
			i := rng.Intn(n)
			h.active[i] = !h.active[i]
			if h.active[i] {
				h.demand[i] = 1 + float64(10*rng.Float64())
			} else {
				h.demand[i] = 0
			}
			changed = append(changed, int32(i))
		}
		h.inc.solveIncremental(h.active, h.demand, h.incOut, changed)
		h.full.solve(h.active, h.demand, h.refOut)
		for i := range m.Flows {
			if h.incOut[i] != h.refOut[i] {
				t.Fatalf("event %d flow %d: fold diverged bitwise: incremental %v, full %v",
					ev, i, h.incOut[i], h.refOut[i])
			}
		}
	}
}

// TestFullSolveIsRegionOfEverything pins that there is one full solve
// however it is reached: on random chain models with contract floors and
// mixed demands, a fresh SolveMaxMin, the engine's monolithic solve and the
// incremental allocator's full fallback — the first call, then the
// over-half-the-flows fallback after every weight churned — produce the same
// rates bit for bit and record the same freeze facts.
func TestFullSolveIsRegionOfEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for iter := 0; iter < 40; iter++ {
		m := randomChainModel(t, rng)
		n := len(m.Flows)
		e, err := newEngine(Config{Model: m, Horizon: time.Second, Control: ControlLoss, solver: solverFull})
		if err != nil {
			t.Fatal(err)
		}
		inc := newAllocator(m)
		inc.enableIncremental()
		incOut := make([]float64, n)
		changed := make([]int32, n)
		for i := range changed {
			changed[i] = int32(i)
		}
		for round := 0; round < 2; round++ {
			for i := 0; i < n; i++ {
				e.active[i] = rng.Float64() < 0.8
				e.demand[i] = randomDemand(rng)
				m.Flows[i].Weight = 0.5 + float64(5*rng.Float64()) // churn: every flow is dirty
				e.markChanged(i)
			}
			fresh := newAllocator(m)
			freshOut := make([]float64, n)
			fresh.solve(e.active, e.demand, freshOut)
			oracle := SolveMaxMin(m, e.active, e.demand)
			e.solve()
			if _, full := inc.solveIncremental(e.active, e.demand, incOut, changed); !full {
				t.Fatalf("model %d round %d: incremental call did not fall back to the full solve", iter, round)
			}
			for _, got := range []struct {
				name string
				a    *allocator
				out  []float64
			}{{"SolveMaxMin", fresh, oracle}, {"engine", e.alloc, e.cur}, {"incremental fallback", inc, incOut}} {
				for i := 0; i < n; i++ {
					if got.out[i] != freshOut[i] {
						t.Fatalf("model %d round %d flow %d: %s rate %v, fresh solve %v", iter, round, i, got.name, got.out[i], freshOut[i])
					}
					if got.a.capped[i] != fresh.capped[i] || got.a.freezeLevel[i] != fresh.freezeLevel[i] || got.a.floor[i] != fresh.floor[i] {
						t.Fatalf("model %d round %d flow %d: %s froze (capped %v, level %v, floor %v), fresh solve (%v, %v, %v)", iter, round, i, got.name,
							got.a.capped[i], got.a.freezeLevel[i], got.a.floor[i], fresh.capped[i], fresh.freezeLevel[i], fresh.floor[i])
					}
				}
				for li := range m.Links {
					if got.a.linkFroze[li] != fresh.linkFroze[li] || (fresh.linkFroze[li] && got.a.linkLevel[li] != fresh.linkLevel[li]) {
						t.Fatalf("model %d round %d link %d: %s froze=%v at %v, fresh solve froze=%v at %v", iter, round, li, got.name,
							got.a.linkFroze[li], got.a.linkLevel[li], fresh.linkFroze[li], fresh.linkLevel[li])
					}
				}
			}
		}
	}
}

// TestIncrementalSolveSteadyStateAllocs pins the zero-allocation contract
// of the incremental path: once the scratch has grown to the working-set
// size, steady-state solves — folds and small regional re-solves alike —
// must not allocate, mirroring the packet engine's link-pipeline pin
// (netem.TestLinkSteadyStateAllocs).
func TestIncrementalSolveSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nLinks, nFlows := 40, 400
	m := NewModel()
	for i := 0; i < nLinks; i++ {
		if _, err := m.AddLink("L"+string(rune('0'+i/10))+string(rune('0'+i%10)), 5e3); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nFlows; i++ {
		a := rng.Intn(nLinks)
		b := a + 1 + rng.Intn(minInt(4, nLinks-a))
		links := make([]int, 0, b-a)
		for l := a; l < b; l++ {
			links = append(links, l)
		}
		if err := m.AddFlow(Flow{Index: i + 1, Weight: float64(1 + i%5), Links: links}); err != nil {
			t.Fatal(err)
		}
	}
	a := newAllocator(m)
	a.enableIncremental()
	active := make([]bool, nFlows)
	demand := make([]float64, nFlows)
	out := make([]float64, nFlows)
	changed := make([]int32, 0, nFlows)
	for i := range active {
		active[i] = true
		demand[i] = 400 + float64(30*rng.Float64()) // saturates most links
		changed = append(changed, int32(i))
	}
	a.solveIncremental(active, demand, out, changed) // tracked full solve

	// Warm the scratch with one churny batch (folds + a regional solve).
	warm := func() []int32 {
		changed = changed[:0]
		for i := 0; i < nFlows; i += 7 {
			demand[i] += 1
			changed = append(changed, int32(i))
		}
		demand[3] = 100 // forces a regional re-solve around flow 3's path
		changed = append(changed, 3)
		return changed
	}
	a.solveIncremental(active, demand, out, warm())

	if avg := testing.AllocsPerRun(20, func() {
		a.solveIncremental(active, demand, out, warm())
	}); avg != 0 {
		t.Fatalf("steady-state incremental solve allocates %.1f times per call, want 0", avg)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// FuzzIncrementalAlloc fuzzes the incremental solver against the
// monolithic one: the input bytes encode a small chain model and an event
// sequence; any divergence beyond 1e-9 (or an oversubscribed link) fails.
func FuzzIncrementalAlloc(f *testing.F) {
	f.Add([]byte{3, 5, 10, 20, 30, 40, 50, 1, 2, 3, 4, 5, 0, 1, 100, 1, 2, 50, 2, 0, 0, 3, 1, 200})
	f.Add([]byte{1, 2, 255, 9, 3, 7, 0, 1, 10, 1, 1, 10, 0, 3, 0, 1, 0, 0})
	f.Add([]byte{5, 8, 100, 100, 100, 100, 100, 9, 9, 9, 9, 9, 9, 9, 9, 2, 2, 2, 2, 0, 1, 40, 1, 1, 40, 4, 2, 0, 7, 3, 0, 6, 1, 250, 5, 1, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nLinks := 1 + int(data[0])%6
		nFlows := 1 + int(data[1])%10
		pos := 2
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		m := NewModel()
		for i := 0; i < nLinks; i++ {
			if _, err := m.AddLink("L"+string(rune('A'+i)), 10+float64(float64(next())*4)); err != nil {
				t.Skip()
			}
		}
		for i := 0; i < nFlows; i++ {
			a := int(next()) % nLinks
			b := a + 1 + int(next())%(nLinks-a)
			links := make([]int, 0, b-a)
			for l := a; l < b; l++ {
				links = append(links, l)
			}
			fl := Flow{Index: i + 1, Weight: 0.5 + float64(float64(next()%16)/4), Links: links}
			if next()%4 == 0 {
				fl.MinRate = float64(next() % 40)
			}
			if err := m.AddFlow(fl); err != nil {
				t.Skip()
			}
		}
		h := newIncrHarness(t, m)
		changed := make([]int32, 0, nFlows)
		for pos < len(data) {
			changed = changed[:0]
			k := 1 + int(next())%3
			for j := 0; j < k; j++ {
				i := int(next()) % nFlows
				op := next() % 5
				v := float64(next())
				switch op {
				case 0:
					h.active[i] = false
					h.demand[i] = 0
				case 1:
					h.active[i] = true
					h.demand[i] = v * 3
				case 2:
					if h.active[i] {
						h.demand[i] = -1
					}
				case 3:
					m.Flows[i].Weight = 0.25 + float64(v/32)
				default:
					if h.active[i] && h.demand[i] >= 0 {
						h.demand[i] += float64(v / 8)
					}
				}
				changed = append(changed, int32(i))
			}
			h.step(changed)
		}
	})
}
