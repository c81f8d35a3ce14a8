package flowsim

import (
	"math"
	"slices"
)

// allocator computes the demand-capped weighted max-min (water-filling)
// allocation over a Model — the repository's one production water-filler.
// Semantically it matches the internal/maxmin reference solver — raise a
// common normalized water level, freezing a flow when its demand is reached
// or a saturated link pins every flow crossing it — but it is slice-based
// and event-driven: the F demand events are sorted once (a radix sort, linear
// in F) and only the L link saturation events pay heap operations, so one
// solve costs about O(F·s + L·log L), s the mean path length, instead of the
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

	// minRate is each flow's contract floor, dense so that fill, classify and
	// the engine's control epoch read it without touching Model.Flows. It
	// starts as Flow.MinRate; the engine raises an unresponsive flow's entry
	// to its FixedDemand under the marker control (see newEngine).
	minRate []float64

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

	// The fill's two event queues: demands is sorted once per fill and
	// consumed front to back, heap holds the link saturation events.
	// sortTmp is the radix sort's second buffer, grown to the longest list
	// it has sorted.
	demands []allocEntry
	sortTmp []allocEntry
	heap    allocHeap

	// incr, when non-nil, carries the previous solution between solves so
	// solveIncremental can skip, fold, or regionally re-solve changes
	// (alloc_incr.go).
	incr *incrState
}

// allocEntry is one pending water-level event: a flow reaching its demand
// or a link saturating. A demand level d/w is final once the floors are
// pre-allocated, so demand events form a list sorted once per fill; only
// link saturation levels rise as flows freeze, so only links sit in the
// heap. Link entries are lazy — a link is never re-enqueued when freezes
// raise its saturation level; instead a link entry that reaches the top with
// a stale level is re-keyed in place at the current level (see fill). That
// keeps exactly one entry per link, so the heap holds at most L entries.
type allocEntry struct {
	level float64
	idx   int32
}

// allocEntryCmp orders events of one kind by (level, idx); the secondary key
// makes the order — and therefore tie-breaking at equal water levels —
// deterministic.
func allocEntryCmp(a, b allocEntry) int {
	switch {
	case a.level < b.level:
		return -1
	case a.level > b.level:
		return 1
	}
	return int(a.idx) - int(b.idx)
}

// less reports allocEntryCmp(e, o) < 0, written so that the heap's
// comparisons inline.
func (e allocEntry) less(o allocEntry) bool {
	return e.level < o.level || !(e.level > o.level) && e.idx < o.idx
}

// allocHeapArity is the heap fan-out: as in the engine's event queue, a
// 4-ary layout halves the tree depth and keeps each node's children in
// adjacent slots.
const allocHeapArity = 4

// allocHeap is a 4-ary min-heap of link saturation events ordered by
// allocEntryCmp. All operations use the hole technique — the moving entry
// is held aside and written once at its final slot instead of swapped level
// by level.
type allocHeap []allocEntry

// pop removes the top entry.
func (h *allocHeap) pop() {
	old := *h
	n := len(old) - 1
	moved := old[n]
	*h = old[:n]
	if n > 0 {
		old[:n].siftDown(0, moved)
	}
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
			if h[c].less(h[small]) {
				small = c
			}
		}
		if !h[small].less(e) {
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

// radixMinDemands is the demand-list length from which sortDemands uses its
// radix sort; below it the radix sort's fixed cost (a 256-bucket histogram
// per key byte) exceeds a comparison sort's.
const radixMinDemands = 256

// sortDemands sorts dq, the fill's demand events, in place by (level, idx).
// ordered reports that dq already ascends by idx — the full solve's case —
// so that a stable sort by level alone yields the (level, idx) order.
//
// Long lists take a least-significant-byte-first radix sort. Demand levels
// are non-negative (a positive excess over a positive weight), and
// non-negative IEEE-754 doubles order like their bit patterns, so the key is
// the idx bytes (low to high, skipped when ordered) then the level's eight
// bit-pattern bytes; each pass is a stable counting scatter, and a byte that
// every entry shares is skipped. The sort calls no comparator, which makes
// it about 2.5× cheaper than slices.SortFunc at 10k entries, and it produces
// the one order allocEntryCmp defines — so results are bitwise those of any
// other sort.
func (a *allocator) sortDemands(dq []allocEntry, ordered bool) {
	n := len(dq)
	if n < radixMinDemands {
		slices.SortFunc(dq, allocEntryCmp)
		return
	}
	const idxBytes, keyBytes = 4, 12
	key := func(e allocEntry, k int) byte {
		if k < idxBytes {
			return byte(uint32(e.idx) >> (8 * k))
		}
		return byte(math.Float64bits(e.level) >> (8 * (k - idxBytes)))
	}
	first := 0
	if ordered {
		first = idxBytes
	}
	var count [keyBytes][256]int32
	for _, e := range dq {
		for k := first; k < keyBytes; k++ {
			count[k][key(e, k)]++
		}
	}
	a.sortTmp = slices.Grow(a.sortTmp[:0], n)
	src, dst := dq, a.sortTmp[:n]
	for k := first; k < keyBytes; k++ {
		c := &count[k]
		if int(c[key(src[0], k)]) == n {
			continue
		}
		var sum int32
		for b, v := range c {
			c[b] = sum
			sum += v
		}
		for _, e := range src {
			b := key(e, k)
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &dq[0] {
		copy(dq, src)
	}
}

// newAllocator builds the static link→flow CSR adjacency for m.
func newAllocator(m *Model) *allocator {
	nf, nl := len(m.Flows), len(m.Links)
	// The per-flow float arrays share one backing array.
	perFlow := make([]float64, 4*nf)
	a := &allocator{
		m:           m,
		lfStart:     make([]int32, nl+1),
		allLinks:    make([]int32, nl),
		allFlows:    make([]int32, nf),
		minRate:     carve(&perFlow, nf, nf),
		frozen:      make([]bool, nf),
		dem:         carve(&perFlow, nf, nf),
		capped:      make([]bool, nf),
		floor:       carve(&perFlow, nf, nf),
		freezeLevel: carve(&perFlow, nf, nf),
		linkFroze:   make([]bool, nl),
		linkLevel:   make([]float64, nl),
		activeW:     make([]float64, nl),
		consumed:    make([]float64, nl),
		cap:         make([]float64, nl),
		linkDone:    make([]bool, nl),
	}
	// One backing array for both queues, each capped so that an append can
	// never run into its neighbour.
	entries := make([]allocEntry, nf+nl)
	a.demands = entries[0:0:nf]
	a.heap = entries[nf : nf : nf+nl]
	for li := range a.allLinks {
		a.allLinks[li] = int32(li)
		a.linkDone[li] = true
	}
	total := 0
	for fi := range m.Flows {
		a.allFlows[fi] = int32(fi)
		a.minRate[fi] = m.Flows[fi].MinRate
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

// Solver runs monolithic water-filling solves over one model. It is the
// oracle: the experiments layer computes every expected rate — either
// backend, any size — with it, passing unbounded demands (a CSFQ blaster's
// is its blast rate), and internal/maxmin is the reference it is tested
// against. A fluid run's oracle solves on the allocator the engine built
// (Output.Solver), so one run builds one link→flow adjacency.
type Solver struct{ a *allocator }

// NewSolver builds a water-filler for m. It is the one place an allocator
// is built: the engine takes its allocator from here too.
func NewSolver(m *Model) *Solver { return &Solver{a: newAllocator(m)} }

// Solve computes the demand-capped weighted max-min allocation: active[i]
// and demand[i] follow the solve conventions below, and the result is
// indexed like the model's flows. capacity, when non-nil, holds one
// capacity per model link and replaces Link.Capacity for this solve (the
// oracle lowers links under a Corelite blaster this way). fill starts from
// its invariants — every flow frozen, every link done — and reads nothing
// an earlier solve or the engine's incremental state left behind, so a
// solve returns the same bits on a fresh allocator and on a used one.
func (s *Solver) Solve(capacity []float64, active []bool, demand []float64) []float64 {
	a := s.a
	out := make([]float64, len(a.m.Flows))
	a.fill(a.allLinks, a.allFlows, capacity, active, demand, out)
	if a.incr != nil {
		// The solve overwrote the freeze facts the incremental baseline
		// keeps; a later incremental call starts from a full solve.
		a.incr.valid = false
	}
	return out
}

// SolveMaxMin is the one-shot form of Solver.Solve: a fresh water-filler
// for m, one solve at the model's capacities.
func SolveMaxMin(m *Model, active []bool, demand []float64) []float64 {
	return NewSolver(m).Solve(nil, active, demand)
}

// solve fills out[i] with the achieved rate of flow i given each flow's
// activity and demand. demand[i] < 0 means unbounded; demand[i] == 0 pins
// the flow at zero. Inactive flows get rate 0 and consume nothing. out must
// have len(m.Flows). It is the region of everything: links and flows go to
// fill in ascending index order, which fixes every floating-point sum.
func (a *allocator) solve(active []bool, demand []float64, out []float64) {
	a.fill(a.allLinks, a.allFlows, nil, active, demand, out)
}

// fill runs the water-filling event solver on the region made of links and
// the flows that move on them. Region links get their full capacity — the
// caller lists every active flow crossing them; capacity[li] when capacity
// is non-nil, else Link.Capacity — and a listed flow's links
// outside the region impose no constraint here (solveIncremental clamps its
// demand to any binding outside level, and verifies the unsaturated ones
// after the fact). Rates land in out (full-length, the listed flows' entries
// written), and the freeze facts of the listed flows and links are recorded.
func (a *allocator) fill(links, flows []int32, capacity []float64, active []bool, demand []float64, out []float64) {
	m := a.m
	a.res = out
	for _, li := range links {
		a.activeW[li] = 0
		a.consumed[li] = 0
		if capacity != nil {
			a.cap[li] = capacity[li]
		} else {
			a.cap[li] = m.Links[li].Capacity
		}
		a.linkDone[li] = false
		a.linkFroze[li] = false
	}
	// Pre-allocate contracted floors (the reference solver's semantics):
	// capacity minus the active floors is what gets water-filled, and each
	// contracted flow's effective demand is its excess above the floor. A
	// bounded excess is final from here on, so its demand event goes
	// straight onto the list that is sorted once below.
	dq := a.demands[:0]
	ordered := true // dq ascends by idx
	unfrozen := 0   // listed flows not yet frozen
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
		floor := a.minRate[fi]
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
		unfrozen++
		for _, li := range f.Links {
			if !a.linkDone[li] {
				a.activeW[li] += f.Weight
			}
		}
		if d >= 0 {
			if n := len(dq); n > 0 && dq[n-1].idx > fi {
				ordered = false
			}
			dq = append(dq, allocEntry{level: d / f.Weight, idx: fi})
		}
	}
	a.sortDemands(dq, ordered)

	h := a.heap[:0]
	for _, li := range links {
		if a.activeW[li] > 0 {
			h = append(h, allocEntry{level: a.satLevel(int(li)), idx: li})
		} else {
			a.linkDone[li] = true
		}
	}
	h.heapify()

	// Merge the two queues: each step takes the lower level, and a demand
	// cap binds before a link saturation at equal levels — the same total
	// order one heap over both kinds would pop in. Once every listed flow is
	// frozen, what is left cannot freeze anything: the demand events are
	// for frozen flows and a link's saturation would only mark it done.
	for next := 0; unfrozen > 0; {
		if next < len(dq) && (len(h) == 0 || dq[next].level <= h[0].level) {
			e := dq[next]
			next++
			if fi := int(e.idx); !a.frozen[fi] {
				a.freeze(fi, a.dem[fi], e.level)
				unfrozen--
			}
			continue
		}
		if len(h) == 0 {
			break
		}
		e := h[0]
		li := int(e.idx)
		if a.linkDone[li] {
			h.pop()
			continue
		}
		level := a.satLevel(li)
		if level != e.level {
			// Stale: freezes since this entry was queued raised the link's
			// saturation level. Re-key it in place at the current level —
			// the lazy counterpart of eagerly re-queueing on every freeze.
			h.siftDown(0, allocEntry{level: level, idx: e.idx})
			continue
		}
		h.pop()
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
			unfrozen--
			froze = true
		}
		if froze {
			a.linkFroze[li] = true
			a.linkLevel[li] = level
		}
	}
	// The links still queued saturate freezing nothing.
	for _, e := range h {
		a.linkDone[e.idx] = true
	}
	a.heap = h[:0]

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
// events are not re-keyed here — fill detects the raised level when the
// link's entry next reaches the top and re-keys it then (lazy link events).
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
