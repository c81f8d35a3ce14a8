package flowsim

// allocator computes the demand-capped weighted max-min (water-filling)
// allocation over a Model — the repository's one production water-filler.
// Semantically it matches the internal/maxmin reference solver — raise a
// common normalized water level, freezing a flow when its demand is reached
// or a saturated link pins every flow crossing it — but it is slice-based
// and event-driven so one solve costs O((F·s + L)·log(F+L)) instead of the
// reference's O(L·F) per filling round, which is what lets the engine
// re-solve after every control epoch with 10k flows. The agreement between
// the two implementations is pinned by differential tests (alloc_test.go).
//
// There is one water-fill kernel, fill, and it works on a region: a set of
// links and the flows that move on them. The monolithic solve is the region
// that contains every link and every flow; the incremental solver
// (alloc_incr.go, enableIncremental) keeps the previous solution between
// calls and re-fills only the region a change set actually touches — the
// dirty-set machinery behind the engine's 100k-flow scaling.
//
// Minimum rate contracts follow the reference's contract variant: the
// contracted floors are pre-subtracted from link capacities, the excess
// demand is water-filled, and the floor is added back — so a contracted flow
// always achieves at least min(demand, contract). Floors that over-subscribe
// a link are clamped, not refused: admission is the caller's check.
type allocator struct {
	m *Model

	// Link→flow adjacency in CSR form, built once per model: the flows
	// crossing link li are lfFlows[lfStart[li]:lfStart[li+1]]. (The
	// flow→link direction is Model.Flows[fi].Links.)
	lfStart []int32
	lfFlows []int32

	// allLinks and allFlows list every index in ascending order: the region
	// the monolithic solve hands to fill.
	allLinks []int32
	allFlows []int32

	// Per-flow scratch, reused across solves. frozen is true for every flow
	// between fills (fill unfreezes only flows it then freezes again), so a
	// saturating link's sweep of its CSR row skips flows outside the region.
	frozen []bool
	res    []float64 // caller's out slice for the current solve
	dem    []float64 // effective (excess) demand this solve; < 0 = unbounded

	// Per-flow solution facts recorded at freeze time (and kept current by
	// the incremental solver's folds).
	capped      []bool    // rate reached the demand cap
	floor       []float64 // contract floor actually granted
	freezeLevel []float64 // water level at the freeze

	// Per-link solution facts.
	linkFroze []bool    // the link's saturation event froze ≥1 flow
	linkLevel []float64 // freezing water level (valid when linkFroze)

	// Per-link scratch. linkDone is true for every link between fills and
	// fill reopens only its region's links (each is done again once the heap
	// drains), so "not done" is also what "in the region" means to a flow
	// walking its path: links outside the region constrain nothing.
	activeW  []float64 // summed weight of unfrozen flows
	consumed []float64 // rate consumed by frozen flows
	cap      []float64 // effective capacity this solve
	linkDone []bool

	heap allocHeap

	// incr, when non-nil, carries the previous solution between solves so
	// solveIncremental can skip, fold, or regionally re-solve changes
	// (alloc_incr.go).
	incr *incrState
}

// allocEntry is one pending water-level event: a flow reaching its demand
// (isFlow) or a link saturating. Link entries are lazy — a link is never
// re-enqueued when freezes raise its saturation level; instead a popped
// link entry whose stored level is stale is re-pushed at the current level
// (see fill). That keeps exactly one live entry per link, so the heap
// holds at most F+L entries instead of growing with every freeze.
type allocEntry struct {
	level  float64
	idx    int32
	isFlow bool
}

// allocEntryLess orders events by (level, isFlow, idx); the secondary keys
// make pop order — and therefore tie-breaking at equal water levels —
// deterministic.
func allocEntryLess(a, b allocEntry) bool {
	if a.level != b.level {
		return a.level < b.level
	}
	if a.isFlow != b.isFlow {
		return a.isFlow // demand caps bind before link saturation at ties
	}
	return a.idx < b.idx
}

// allocHeapArity is the heap fan-out: as in the engine's event queue, a
// 4-ary layout halves the tree depth and keeps each node's children in
// adjacent slots.
const allocHeapArity = 4

// allocHeap is a 4-ary min-heap over (level, isFlow, idx). Both operations
// use the hole technique — the moving entry is held aside and written once
// at its final slot instead of swapped level by level.
type allocHeap []allocEntry

func (h *allocHeap) push(e allocEntry) {
	*h = append(*h, e)
	es := *h
	i := len(es) - 1
	for i > 0 {
		parent := (i - 1) / allocHeapArity
		if !allocEntryLess(e, es[parent]) {
			break
		}
		es[i] = es[parent]
		i = parent
	}
	es[i] = e
}

func (h *allocHeap) pop() allocEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	moved := old[n]
	*h = old[:n]
	if n > 0 {
		old[:n].siftDown(0, moved)
	}
	return top
}

// siftDown moves e down from slot i to its final position.
func (h allocHeap) siftDown(i int, e allocEntry) {
	n := len(h)
	for {
		first := allocHeapArity*i + 1
		if first >= n {
			break
		}
		small := first
		end := first + allocHeapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if allocEntryLess(h[c], h[small]) {
				small = c
			}
		}
		if !allocEntryLess(h[small], e) {
			break
		}
		h[i] = h[small]
		i = small
	}
	h[i] = e
}

// heapify establishes the heap property over arbitrary contents in O(n) —
// the bulk build used at the start of each solve, replacing n·log n
// individual pushes.
func (h allocHeap) heapify() {
	n := len(h)
	if n < 2 {
		return
	}
	for i := (n - 2) / allocHeapArity; i >= 0; i-- {
		h.siftDown(i, h[i])
	}
}

// newAllocator builds the static link→flow CSR adjacency for m.
func newAllocator(m *Model) *allocator {
	nf, nl := len(m.Flows), len(m.Links)
	a := &allocator{
		m:           m,
		lfStart:     make([]int32, nl+1),
		allLinks:    make([]int32, nl),
		allFlows:    make([]int32, nf),
		frozen:      make([]bool, nf),
		dem:         make([]float64, nf),
		capped:      make([]bool, nf),
		floor:       make([]float64, nf),
		freezeLevel: make([]float64, nf),
		linkFroze:   make([]bool, nl),
		linkLevel:   make([]float64, nl),
		activeW:     make([]float64, nl),
		consumed:    make([]float64, nl),
		cap:         make([]float64, nl),
		linkDone:    make([]bool, nl),
		heap:        make(allocHeap, 0, nf+nl),
	}
	for li := range a.allLinks {
		a.allLinks[li] = int32(li)
		a.linkDone[li] = true
	}
	total := 0
	for fi := range m.Flows {
		a.allFlows[fi] = int32(fi)
		a.frozen[fi] = true
		for _, li := range m.Flows[fi].Links {
			a.lfStart[li+1]++
		}
		total += len(m.Flows[fi].Links)
	}
	for li := 0; li < len(m.Links); li++ {
		a.lfStart[li+1] += a.lfStart[li]
	}
	a.lfFlows = make([]int32, total)
	fill := make([]int32, len(m.Links))
	for fi := range m.Flows {
		for _, li := range m.Flows[fi].Links {
			a.lfFlows[a.lfStart[li]+fill[li]] = int32(fi)
			fill[li]++
		}
	}
	return a
}

// flowsOn lists the flows crossing link li (ascending flow index).
func (a *allocator) flowsOn(li int) []int32 {
	return a.lfFlows[a.lfStart[li]:a.lfStart[li+1]]
}

// SolveMaxMin computes the demand-capped weighted max-min allocation for m
// in one shot: active[i]/demand[i] follow the solve conventions below and
// the result is indexed like m.Flows. It is the oracle: the experiments
// layer computes every expected rate — either backend, any size — by
// calling it with unbounded demands, and internal/maxmin is the reference
// it is tested against.
func SolveMaxMin(m *Model, active []bool, demand []float64) []float64 {
	a := newAllocator(m)
	out := make([]float64, len(m.Flows))
	a.solve(active, demand, out)
	return out
}

// solve fills out[i] with the achieved rate of flow i given each flow's
// activity and demand. demand[i] < 0 means unbounded; demand[i] == 0 pins
// the flow at zero. Inactive flows get rate 0 and consume nothing. out must
// have len(m.Flows). It is the region of everything: links and flows go to
// fill in ascending index order, which fixes every floating-point sum.
func (a *allocator) solve(active []bool, demand []float64, out []float64) {
	a.fill(a.allLinks, a.allFlows, active, demand, out)
}

// fill runs the water-filling event solver on the region made of links and
// the flows that move on them. Region links get their full capacity — the
// caller lists every active flow crossing them — and a listed flow's links
// outside the region impose no constraint here (solveIncremental clamps its
// demand to any binding outside level, and verifies the unsaturated ones
// after the fact). Rates land in out (full-length, the listed flows' entries
// written), and the freeze facts of the listed flows and links are recorded.
func (a *allocator) fill(links, flows []int32, active []bool, demand []float64, out []float64) {
	m := a.m
	a.res = out
	for _, li := range links {
		a.activeW[li] = 0
		a.consumed[li] = 0
		a.cap[li] = m.Links[li].Capacity
		a.linkDone[li] = false
		a.linkFroze[li] = false
	}
	a.heap = a.heap[:0]

	// Pre-allocate contracted floors (the reference solver's semantics):
	// capacity minus the active floors is what gets water-filled, and each
	// contracted flow's effective demand is its excess above the floor.
	for _, fi := range flows {
		f := &m.Flows[fi]
		out[fi] = 0
		if !active[fi] || f.Weight <= 0 {
			a.frozen[fi] = true
			a.capped[fi] = false
			a.freezeLevel[fi] = 0
			a.floor[fi] = 0
			continue
		}
		floor := f.MinRate
		d := demand[fi]
		if floor > 0 && d >= 0 && d < floor {
			// The flow asks for less than its contract; it gets what it
			// asks for and reserves only that much.
			floor = d
		}
		if floor > 0 {
			out[fi] = floor
			for _, li := range f.Links {
				if a.linkDone[li] {
					continue
				}
				a.cap[li] -= floor
				if a.cap[li] < 0 {
					a.cap[li] = 0
				}
			}
		}
		a.floor[fi] = floor
		if d >= 0 {
			d -= floor
			if d <= 0 {
				a.frozen[fi] = true
				a.capped[fi] = true
				a.freezeLevel[fi] = 0
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

	h := a.heap
	for _, fi := range flows {
		if a.frozen[fi] {
			continue
		}
		if d := a.dem[fi]; d >= 0 {
			h = append(h, allocEntry{level: d / m.Flows[fi].Weight, idx: fi, isFlow: true})
		}
	}
	for _, li := range links {
		if a.activeW[li] > 0 {
			h = append(h, allocEntry{level: a.satLevel(int(li)), idx: li})
		} else {
			a.linkDone[li] = true
		}
	}
	h.heapify()
	a.heap = h

	for len(a.heap) > 0 {
		e := a.heap.pop()
		if e.isFlow {
			fi := int(e.idx)
			if a.frozen[fi] {
				continue
			}
			a.freeze(fi, a.dem[fi], e.level)
			continue
		}
		li := int(e.idx)
		if a.linkDone[li] {
			continue
		}
		level := a.satLevel(li)
		if level != e.level {
			// Stale: freezes since this entry was pushed raised the link's
			// saturation level. Re-enqueue at the current level — the lazy
			// counterpart of eagerly re-pushing on every freeze.
			a.heap.push(allocEntry{level: level, idx: e.idx})
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
			a.linkFroze[li] = true
			a.linkLevel[li] = level
		}
	}

	// Every flow crosses at least one link, so the loop above freezes all
	// of them; the fallback keeps fuzzed degenerate inputs total.
	for _, fi := range flows {
		if !a.frozen[fi] {
			a.freeze(int(fi), 0, 0)
		}
	}
}

// satLevel is the water level at which link li saturates given its current
// frozen consumption.
func (a *allocator) satLevel(li int) float64 {
	w := a.activeW[li]
	if w <= 0 {
		return 0
	}
	level := (a.cap[li] - a.consumed[li]) / w
	if level < 0 {
		level = 0
	}
	return level
}

// freeze pins flow fi at excess rate r (on top of any pre-allocated
// contract floor) and updates its region links. lvl is the water level at
// the freeze, recorded for the incremental solver's certificate checks. Link
// events are not re-enqueued here — the pop loop detects the raised level
// on a link entry's next pop and re-pushes it then (lazy link events).
func (a *allocator) freeze(fi int, r, lvl float64) {
	a.frozen[fi] = true
	a.res[fi] += r
	a.capped[fi] = a.dem[fi] >= 0 && r >= a.dem[fi]
	a.freezeLevel[fi] = lvl
	f := &a.m.Flows[fi]
	for _, li := range f.Links {
		if a.linkDone[li] {
			continue
		}
		a.consumed[li] += r
		a.activeW[li] -= f.Weight
		if a.activeW[li] <= 1e-12 {
			a.activeW[li] = 0
			a.linkDone[li] = true
		}
	}
}
