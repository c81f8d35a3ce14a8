package flowsim

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refEntry is one event of the single-queue reference kernel: demand and
// link events share one heap, ordered by (level, demand before link, idx).
type refEntry struct {
	level  float64
	idx    int32
	isFlow bool
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.level != b.level {
		return a.level < b.level
	}
	if a.isFlow != b.isFlow {
		return a.isFlow
	}
	return a.idx < b.idx
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// singleHeapFill is allocator.fill with one event heap over both kinds — the
// queue the kernel pops from before demand events got their own sorted list.
// It shares fill's floor pre-allocation arithmetic and a's freeze and
// satLevel, so any divergence from fill is the queue's.
func singleHeapFill(a *allocator, links, flows []int32, active []bool, demand []float64, out []float64) {
	m := a.m
	a.res = out
	for _, li := range links {
		a.activeW[li] = 0
		a.consumed[li] = 0
		a.cap[li] = m.Links[li].Capacity
		a.linkDone[li] = false
		a.linkFroze[li] = false
	}
	for _, fi := range flows {
		f := &m.Flows[fi]
		out[fi] = 0
		if !active[fi] || f.Weight <= 0 {
			a.frozen[fi], a.capped[fi], a.freezeLevel[fi], a.floor[fi] = true, false, 0, 0
			continue
		}
		floor := f.MinRate
		d := demand[fi]
		if floor > 0 && d >= 0 && d < floor {
			floor = d
		}
		if floor > 0 {
			out[fi] = floor
			for _, li := range f.Links {
				if !a.linkDone[li] {
					if a.cap[li] -= floor; a.cap[li] < 0 {
						a.cap[li] = 0
					}
				}
			}
		}
		a.floor[fi] = floor
		if d >= 0 {
			if d -= floor; d <= 0 {
				a.frozen[fi], a.capped[fi], a.freezeLevel[fi] = true, true, 0
				continue
			}
		}
		a.dem[fi] = d
		a.frozen[fi] = false
		for _, li := range f.Links {
			if !a.linkDone[li] {
				a.activeW[li] += f.Weight
			}
		}
	}
	var h refHeap
	for _, fi := range flows {
		if d := a.dem[fi]; !a.frozen[fi] && d >= 0 {
			h = append(h, refEntry{level: d / m.Flows[fi].Weight, idx: fi, isFlow: true})
		}
	}
	for _, li := range links {
		if a.activeW[li] > 0 {
			h = append(h, refEntry{level: a.satLevel(int(li)), idx: li})
		} else {
			a.linkDone[li] = true
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		e := heap.Pop(&h).(refEntry)
		if e.isFlow {
			if fi := int(e.idx); !a.frozen[fi] {
				a.freeze(fi, a.dem[fi], e.level)
			}
			continue
		}
		li := int(e.idx)
		if a.linkDone[li] {
			continue
		}
		level := a.satLevel(li)
		if level != e.level {
			heap.Push(&h, refEntry{level: level, idx: e.idx})
			continue
		}
		a.linkDone[li] = true
		froze := false
		for _, fi32 := range a.flowsOn(li) {
			fi := int(fi32)
			if a.frozen[fi] {
				continue
			}
			r := level * m.Flows[fi].Weight
			if d := a.dem[fi]; d >= 0 && r > d {
				r = d
			}
			a.freeze(fi, r, level)
			froze = true
		}
		if froze {
			a.linkFroze[li], a.linkLevel[li] = true, level
		}
	}
	for _, fi := range flows {
		if !a.frozen[fi] {
			a.freeze(int(fi), 0, 0)
		}
	}
}

// tiedChainModel builds a chain model whose capacities, weights and floors
// come from small sets — weights are powers of two, so a level times a
// weight is exact — and tiedDemands puts demand levels on a few thirds, so
// demand levels, link saturation levels and the two against each other tie
// often, while the rates they freeze at still round differently depending
// on which sum runs first: the cases where pop order shows in the bits.
func tiedChainModel(t *testing.T, rng *rand.Rand, nLinks, nFlows, span int) *Model {
	t.Helper()
	m := NewModel()
	for i := 0; i < nLinks; i++ {
		if _, err := m.AddLink("L"+string(rune('A'+i%26))+string(rune('a'+i/26)), float64(int(60)<<rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nFlows; i++ {
		a := rng.Intn(nLinks)
		b := a + 1 + rng.Intn(minInt(span, nLinks-a))
		links := make([]int, 0, b-a)
		for l := a; l < b; l++ {
			links = append(links, l)
		}
		f := Flow{Index: i + 1, Weight: float64(int(1) << rng.Intn(3)), Links: links}
		if rng.Intn(5) == 0 {
			f.MinRate = 10
		}
		if err := m.AddFlow(f); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// tiedDemands draws activity and demands for m: mostly a level on a grid of
// thirds times the flow's weight (ties), some unbounded, some zero, some
// random. The grid is either fine enough that demands reach link saturation
// or coarse enough that each link sees several demand events at one level.
func tiedDemands(rng *rand.Rand, m *Model, active []bool, demand []float64) {
	grid := []int{8, 60}[rng.Intn(2)]
	for i := range active {
		active[i] = rng.Intn(8) != 0
		switch k := rng.Intn(8); {
		case k == 0:
			demand[i] = -1
		case k == 1:
			demand[i] = 0
		case k == 2:
			demand[i] = 100 * rng.Float64()
		default:
			demand[i] = float64(1+rng.Intn(grid)) / 3 * m.Flows[i].Weight
		}
	}
}

// TestSplitQueueMatchesSingleHeap pins the split event queue to the single
// heap it replaced: on tie-heavy chain models — small ones, and ones with
// more demand events than radixMinDemands so the radix sort runs — full
// solves and regional fills over shuffled flow lists give bitwise equal
// rates and identical freeze facts from fill and from singleHeapFill.
func TestSplitQueueMatchesSingleHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for iter := 0; iter < 60; iter++ {
		nLinks, nFlows := 2+rng.Intn(10), 4+rng.Intn(30)
		if iter%10 == 0 {
			nLinks, nFlows = 40, 2*radixMinDemands+rng.Intn(500)
		}
		m := tiedChainModel(t, rng, nLinks, nFlows, 5)
		got, want := newAllocator(m), newAllocator(m)
		gotOut, wantOut := make([]float64, nFlows), make([]float64, nFlows)
		active, demand := make([]bool, nFlows), make([]float64, nFlows)
		for round := 0; round < 4; round++ {
			tiedDemands(rng, m, active, demand)
			links, flows := got.allLinks, got.allFlows
			if round > 0 {
				// A region: some links, every flow crossing them, listed in
				// a shuffled order (the regional solver's movable list is
				// not sorted either).
				links, flows = nil, nil
				seen := make([]bool, nFlows)
				for li := 0; li < nLinks; li++ {
					if rng.Intn(4) == 0 {
						continue
					}
					links = append(links, int32(li))
					for _, fi := range got.flowsOn(li) {
						if !seen[fi] {
							seen[fi] = true
							flows = append(flows, fi)
						}
					}
				}
				rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
			}
			got.fill(links, flows, nil, active, demand, gotOut)
			singleHeapFill(want, links, flows, active, demand, wantOut)
			for i := 0; i < nFlows; i++ {
				if gotOut[i] != wantOut[i] || got.capped[i] != want.capped[i] ||
					got.floor[i] != want.floor[i] || got.freezeLevel[i] != want.freezeLevel[i] {
					t.Fatalf("model %d round %d flow %d: split queue (rate %v, capped %v, floor %v, level %v), single heap (%v, %v, %v, %v)",
						iter, round, i, gotOut[i], got.capped[i], got.floor[i], got.freezeLevel[i],
						wantOut[i], want.capped[i], want.floor[i], want.freezeLevel[i])
				}
				if !got.frozen[i] {
					t.Fatalf("model %d round %d: flow %d left unfrozen", iter, round, i)
				}
			}
			for li := 0; li < nLinks; li++ {
				if got.linkFroze[li] != want.linkFroze[li] || (want.linkFroze[li] && got.linkLevel[li] != want.linkLevel[li]) {
					t.Fatalf("model %d round %d link %d: split queue froze=%v at %v, single heap froze=%v at %v",
						iter, round, li, got.linkFroze[li], got.linkLevel[li], want.linkFroze[li], want.linkLevel[li])
				}
				if !got.linkDone[li] {
					t.Fatalf("model %d round %d: link %d left open", iter, round, li)
				}
			}
		}
	}
}

// TestSortDemandsMatchesComparisonSort holds sortDemands to the order
// allocEntryCmp defines, on both sides of radixMinDemands: distinct and tied
// levels (zero, subnormal and +Inf included), indices past 16 bits, input
// already ascending by index and shuffled. The sort is in place, whichever
// buffer the last radix pass wrote.
func TestSortDemandsMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := &allocator{} // one allocator, so the second buffer both grows and is reused
	for _, n := range []int{0, 1, 7, radixMinDemands - 1, radixMinDemands, 3000, radixMinDemands + 1} {
		for _, ties := range []bool{false, true} {
			for _, ordered := range []bool{false, true} {
				idx := rng.Perm(50 * n)[:n]
				if ordered {
					slices.Sort(idx)
				}
				dq := make([]allocEntry, 0, n)
				for _, ix := range idx {
					level := rng.ExpFloat64() * 40
					switch k := rng.Intn(50); {
					case ties:
						level = float64(rng.Intn(6)) / 4
					case k == 0:
						level = 0
					case k == 1:
						level = math.Inf(1)
					case k == 2:
						level = math.SmallestNonzeroFloat64
					}
					dq = append(dq, allocEntry{level: level, idx: int32(ix)})
				}
				want := slices.Clone(dq)
				slices.SortFunc(want, allocEntryCmp)
				a.sortDemands(dq, ordered)
				if !slices.Equal(dq, want) {
					t.Fatalf("n=%d ties=%v ordered=%v: sortDemands order differs from allocEntryCmp", n, ties, ordered)
				}
			}
		}
	}
}

// chain10kAllocator builds the allocator benchmark and allocation tests
// share: a 1000-link chain of 500 pkt/s links crossed by 10000 flows of span
// 1–4 with weights 1–4, and demands scattered around the fair share so that
// both demand caps and link saturations freeze flows.
func chain10kAllocator(tb testing.TB) (*allocator, []bool, []float64) {
	tb.Helper()
	const nLinks, nFlows = 1000, 10000
	rng := rand.New(rand.NewSource(10))
	m := NewModel()
	for i := 0; i < nLinks; i++ {
		if _, err := m.AddLink("c"+string(rune('0'+i/100))+string(rune('0'+i/10%10))+string(rune('0'+i%10)), 500); err != nil {
			tb.Fatal(err)
		}
	}
	active, demand := make([]bool, nFlows), make([]float64, nFlows)
	for i := 0; i < nFlows; i++ {
		a := rng.Intn(nLinks)
		b := a + 1 + rng.Intn(minInt(4, nLinks-a))
		links := make([]int, 0, b-a)
		for l := a; l < b; l++ {
			links = append(links, l)
		}
		w := float64(1 + rng.Intn(4))
		if err := m.AddFlow(Flow{Index: i + 1, Weight: w, Links: links}); err != nil {
			tb.Fatal(err)
		}
		active[i] = true
		demand[i] = w * 8 * (0.5 + float64(rng.Float64()))
	}
	return newAllocator(m), active, demand
}

// TestFullSolveSteadyStateAllocs pins that a full solve above the radix
// cutoff allocates nothing once warm: both event queues are sized when the
// allocator is built, and the sort's second buffer on the first long sort.
func TestFullSolveSteadyStateAllocs(t *testing.T) {
	a, active, demand := chain10kAllocator(t)
	out := make([]float64, len(active))
	a.solve(active, demand, out)
	if avg := testing.AllocsPerRun(5, func() { a.solve(active, demand, out) }); avg != 0 {
		t.Fatalf("full solve allocates %.1f times per call, want 0", avg)
	}
}

// BenchmarkFullSolveChain10k times the water-fill kernel alone on the
// flow_chain10k shape: one full solve of 10000 flows over 1000 links.
func BenchmarkFullSolveChain10k(b *testing.B) {
	a, active, demand := chain10kAllocator(b)
	out := make([]float64, len(active))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.solve(active, demand, out)
	}
}
