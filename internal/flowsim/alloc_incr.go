package flowsim

import (
	"math"
	"slices"
)

// This file is the incremental (dirty-set) water-filling solver. The
// monolithic solve (alloc.go) fills the region of everything from scratch;
// at 100k flows that is millions of heap operations per control epoch even
// when a single mouse arrived. The incremental solver exploits the same
// sparsity the core-stateless architecture does — a change is local to the
// links on the changed flow's path — in three tiers, cheapest first:
//
//  1. Certificate skip: a link-bottlenecked flow whose demand moves but
//     stays strictly above its freezing water level is inert — its demand
//     event never fired in the monolithic solve and still would not. O(1).
//
//  2. Slack fold: a demand-capped flow whose path links all froze nobody
//     (unsaturated) absorbs a demand change in place — its rate follows the
//     demand, link usages shift by the delta, nobody else moves. Arrivals
//     into slack and departures from unsaturated paths fold the same way.
//     O(path). This is the epoch-batching fast path: in the uncongested
//     phases of the LIMD oscillation every flow's +α probe is a fold.
//
//  3. Regional re-solve: everything else seeds a dirty-link region — the
//     changed flows' paths — and the kernel (allocator.fill) reruns on that
//     region only. All active flows crossing a dirty link are movable (so dirty
//     links keep their full capacity); a movable flow that also crosses a
//     binding link outside the region is clamped to that link's water
//     level. After the solve the region's boundary is verified: a binding
//     boundary link whose usage shifted, or an unsaturated one pushed near
//     saturation, joins the region and the solve repeats (the region grows
//     monotonically, so the loop terminates). When the region stops
//     spreading, the partial solution pastes into the previous one.
//
// A region that would hold more than half the flows is not worth solving
// regionally: the call falls back to the full solve. The movable set only
// grows with the dirty set, so that fallback is certain the moment the
// flows seen so far cross half the model — the region is seeded and
// scanned while the changes are still being classified, and the rest of
// the change set is left to the full solve.
//
// Tiers 1 and 2 reproduce the monolithic solution exactly (the skipped
// events produce no arithmetic in the full solve either); tier 3 agrees to
// float tolerance, pinned ≤1e-9 by the differential suite in
// alloc_incr_test.go. Callers that need bitwise identity with the full
// solve (the paper figures) stay below IncrementalMinFlows and never enter
// this path.
type incrState struct {
	valid bool

	// Mirror of the last solve's inputs, per flow.
	act []bool
	dm  []float64
	wt  []float64 // detects weight churn between solves

	// linkUsed is each link's summed achieved rate (floors included).
	linkUsed []float64
	// foldLimit is the usage a link may reach and still count as unsaturated
	// for a fold: capacity − allocSatMargin·max(capacity, 1), computed once.
	foldLimit []float64

	// Region scratch, epoch-stamped so steady-state solves allocate nothing.
	// One flow mark holds two facts: 2·stamp → the region scan reached the
	// flow, 2·stamp+1 → classify found it dirty; either way it is movable.
	stamp      int32
	flowMark   []int32
	linkMark   []int32 // == stamp → link is in the dirty region
	bStamp     int32
	bMark      []int32   // == bStamp → boundary link touched this round
	bDelta     []float64 // usage delta accumulated on a boundary link
	dirtyFlows []int32
	dirtyLinks []int32
	movable    []int32
	boundary   []int32
	effDem     []float64 // movable flows' demands after boundary clamps
	newRate    []float64 // region solve output, pasted in at commit
	clamped    []bool    // movable flow clamped by a binding boundary link

	// touchedList holds the flows whose out[] entry the last incremental
	// call wrote (folds + the committed region). The engine's lazy
	// integrator settles exactly these flows' delivered/lost integrals
	// before their rates change; it is only meaningful when the call
	// returned full == false (a full solve rewrites every flow).
	touchedList []int32

	// tally counts how the last call resolved its change set; the engine
	// publishes it once per call (obs.go).
	tally [numTiers]int
}

// Solver-tier outcomes tallied per solveIncremental call. The first call's
// tracked full solve counts in none of them.
const (
	tierSkip      = iota // certificate skips
	tierFold             // slack folds
	tierRegional         // regional solves committed
	tierRound            // region expansion rounds
	tierEarlyFull        // full fallbacks decided while classifying
	tierLateFull         // full fallbacks after a region growth round
	numTiers
)

// tierNames are the counter names of the tiers under fluid/solve/tier/.
var tierNames = [numTiers]string{
	"certificate-skips", "folds", "regional-solves", "expansion-rounds",
	"fallback-early", "fallback-late",
}

const (
	// allocSatMargin is the relative slack below capacity at which a fold
	// refuses to land: folds must leave links comfortably unsaturated so
	// float drift in the running usage sums can never blur the
	// saturated/unsaturated classification (per-link drift is O(F·ulp),
	// orders of magnitude below the margin).
	allocSatMargin = 1e-9
	// allocSnapEps: a clamped flow whose regional rate lands within this
	// relative distance of its previous rate is snapped back to it exactly,
	// so an untouched boundary verifies as Δ == 0.
	allocSnapEps = 1e-12
	// incrMaxRounds bounds the region-growth iterations before falling back
	// to a full solve (each round adds at least one link, so growth is
	// already bounded; the cap keeps the worst case predictable).
	incrMaxRounds = 32
)

// enableIncremental allocates the persistent between-solve state
// (idempotent). The first solveIncremental after enabling runs full.
func (a *allocator) enableIncremental() {
	if a.incr != nil {
		return
	}
	nf, nl := len(a.m.Flows), len(a.m.Links)
	// The per-link float arrays share one backing array.
	perLink := make([]float64, 3*nl)
	a.incr = &incrState{
		act:       make([]bool, nf),
		dm:        make([]float64, nf),
		wt:        make([]float64, nf),
		linkUsed:  carve(&perLink, nl, nl),
		foldLimit: carve(&perLink, nl, nl),
		flowMark:  make([]int32, nf),
		linkMark:  make([]int32, nl),
		bMark:     make([]int32, nl),
		bDelta:    carve(&perLink, nl, nl),
		effDem:    make([]float64, nf),
		newRate:   make([]float64, nf),
		clamped:   make([]bool, nf),
	}
	for li := range a.incr.foldLimit {
		c := a.m.Links[li].Capacity
		a.incr.foldLimit[li] = c - float64(allocSatMargin*max1(c))
	}
}

// solveTracked runs the monolithic solve and captures the full mirror
// state, re-validating the incremental baseline.
func (a *allocator) solveTracked(active []bool, demand []float64, out []float64) {
	a.solve(active, demand, out)
	s := a.incr
	copy(s.act, active)
	copy(s.dm, demand)
	for fi := range a.m.Flows {
		s.wt[fi] = a.m.Flows[fi].Weight
	}
	a.sumLinkUsed(a.allLinks, active, out)
	s.valid = true
}

// sumLinkUsed recomputes the usage of the given links from the achieved
// rates, adding each link's active flows in ascending index order.
func (a *allocator) sumLinkUsed(links []int32, active []bool, out []float64) {
	for _, li := range links {
		u := 0.0
		for _, fi := range a.flowsOn(int(li)) {
			if active[fi] {
				u += out[fi]
			}
		}
		a.incr.linkUsed[li] = u
	}
}

// classification outcomes for one changed flow.
const (
	classNoop  = iota // nothing to do
	classSkip         // certificate skip: the demand event still cannot fire
	classFold         // absorbed in place, out/linkUsed updated
	classDirty        // needs a regional re-solve
)

func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}

// foldHeadroom reports whether link li can absorb delta more rate and stay
// clear of saturation by the fold margin.
func (s *incrState) foldHeadroom(li int, delta float64) bool {
	return s.linkUsed[li]+delta <= s.foldLimit[li]
}

// classify resolves one changed flow against the previous solution:
// certificate skips and folds are applied immediately, everything else is
// escalated to the regional solver.
func (a *allocator) classify(fi int, newAct bool, newD float64, out []float64) int {
	s := a.incr
	f := &a.m.Flows[fi]
	oldAct := s.act[fi]
	if f.Weight != s.wt[fi] {
		return classDirty // weight churn always re-levels the region
	}
	if !oldAct && !newAct {
		s.dm[fi] = newD
		return classNoop
	}
	if oldAct && newAct && newD == s.dm[fi] {
		return classNoop
	}
	if f.Weight <= 0 {
		return classDirty // degenerate; let the region solver zero it
	}
	if oldAct && !newAct {
		// Departure. If no path link is binding, removing the flow frees
		// slack nobody was waiting for: drop its rate and move on.
		for _, li := range f.Links {
			if a.linkFroze[li] {
				return classDirty
			}
		}
		r := out[fi]
		for _, li := range f.Links {
			s.linkUsed[li] -= r
		}
		out[fi] = 0
		s.act[fi] = false
		s.dm[fi] = newD
		a.capped[fi] = false
		a.freezeLevel[fi] = 0
		a.floor[fi] = 0
		return classFold
	}

	newFloor := a.minRate[fi]
	if newD >= 0 && newD < newFloor {
		newFloor = newD
	}
	if !oldAct {
		// Arrival. A bounded demand landing on an all-unsaturated path with
		// headroom folds straight in at its full ask.
		if newD < 0 {
			return classDirty
		}
		ex := newD - newFloor
		rate := newFloor
		if ex > 0 {
			rate = newFloor + ex
		}
		for _, li := range f.Links {
			if a.linkFroze[li] || !s.foldHeadroom(li, rate) {
				return classDirty
			}
		}
		for _, li := range f.Links {
			s.linkUsed[li] += rate
		}
		out[fi] = rate
		s.act[fi] = true
		s.dm[fi] = newD
		a.capped[fi] = true
		a.floor[fi] = newFloor
		if ex > 0 {
			a.freezeLevel[fi] = ex / f.Weight
		} else {
			a.freezeLevel[fi] = 0
		}
		return classFold
	}

	// Active flow, demand moved.
	if !a.capped[fi] {
		// Link-bottlenecked: the demand event never fired. While the new
		// demand's level stays strictly above the freezing level — and the
		// granted floor is unchanged — the event still cannot fire and the
		// whole solution is untouched.
		if newFloor == a.floor[fi] &&
			(newD < 0 || (newD-newFloor)/f.Weight > a.freezeLevel[fi]) {
			s.dm[fi] = newD
			return classSkip
		}
		return classDirty
	}
	// Demand-capped. On an all-unsaturated path the rate simply follows the
	// demand (the epoch-batching fold): replicate the monolithic floor
	// arithmetic so the folded rate is bitwise what a full solve would give.
	if newD < 0 {
		return classDirty
	}
	ex := newD - newFloor
	rate := newFloor
	if ex > 0 {
		rate = newFloor + ex
	}
	delta := rate - out[fi]
	for _, li := range f.Links {
		if a.linkFroze[li] {
			return classDirty
		}
		if delta > 0 && !s.foldHeadroom(li, delta) {
			return classDirty
		}
	}
	for _, li := range f.Links {
		s.linkUsed[li] += delta
	}
	out[fi] = rate
	s.dm[fi] = newD
	a.floor[fi] = newFloor
	if ex > 0 {
		a.freezeLevel[fi] = ex / f.Weight
	} else {
		a.freezeLevel[fi] = 0
	}
	return classFold
}

// solveIncremental advances the allocation from the previous call's
// solution to the one for (active, demand), re-solving only what the flows
// in changed actually disturb. out must be the same slice as the previous
// call (it still holds the previous rates — the whole point is not to
// rewrite the untouched ones). changed lists the flows whose activity,
// demand, or weight may differ from the last call; flows not listed MUST be
// unchanged. Returns the number of flows whose rate was recomputed and
// whether the call degenerated to a full solve.
func (a *allocator) solveIncremental(active []bool, demand []float64, out []float64, changed []int32) (touched int, full bool) {
	s := a.incr
	if !s.valid {
		s.tally = [numTiers]int{}
		a.solveTracked(active, demand, out)
		return len(a.m.Flows), true
	}
	m := a.m
	nf := len(m.Flows)
	s.stamp++
	stamp := s.stamp
	seen, dirty := 2*stamp, 2*stamp+1 // flow marks, see incrState
	dirtyFlows := s.dirtyFlows[:0]
	dirtyLinks := s.dirtyLinks[:0]
	scan := s.movable[:0] // active flows reached by the region scan
	tl := s.touchedList[:0]
	var tally [numTiers]int

	// Classify the changes in order. A dirty flow seeds its path links into
	// the region at once and the scan marks every active flow on them, so
	// nMovable is |dirty flows ∪ active flows on their links| so far. It
	// only grows, so once it passes half the model the fallback is certain.
	nMovable := 0
	for _, fi32 := range changed {
		fi := int(fi32)
		switch a.classify(fi, active[fi], demand[fi], out) {
		case classSkip:
			tally[tierSkip]++
		case classFold:
			tally[tierFold]++
			touched++
			tl = append(tl, fi32)
		case classDirty:
			mark := s.flowMark[fi]
			if mark == dirty {
				continue
			}
			if mark != seen {
				nMovable++
			}
			s.flowMark[fi] = dirty
			dirtyFlows = append(dirtyFlows, fi32)
			for _, li := range m.Flows[fi].Links {
				if s.linkMark[li] == stamp {
					continue
				}
				s.linkMark[li] = stamp
				dirtyLinks = append(dirtyLinks, int32(li))
				for _, fj := range a.flowsOn(li) {
					if active[fj] && s.flowMark[fj]&^1 != seen {
						s.flowMark[fj] = seen
						scan = append(scan, fj)
						nMovable++
					}
				}
			}
			if 2*nMovable > nf {
				// The full solve rewrites every rate, mirror entry and
				// freeze fact the classifications so far have touched.
				tally[tierEarlyFull]++
				s.keep(tally, dirtyFlows, dirtyLinks, scan, tl)
				a.solveTracked(active, demand, out)
				return nf, true
			}
		}
	}
	if len(dirtyFlows) == 0 {
		s.keep(tally, dirtyFlows, dirtyLinks, scan, tl)
		return touched, false
	}

	// The movable flows: the dirty ones in classification order, then those
	// the scan reached in first-seen order — a flow the scan reached before
	// it was classified dirty keeps only its dirty position.
	kept := scan[:0]
	for _, fi32 := range scan {
		if s.flowMark[fi32] == seen {
			kept = append(kept, fi32)
		}
	}
	movable := slices.Insert(kept, 0, dirtyFlows...)
	scanned := len(dirtyLinks)
	for {
		// Clamp movable flows crossing a binding link outside the region to
		// that link's water level: inside the region they may take at most
		// what the frozen outside level already grants them.
		for _, fi32 := range movable {
			fi := int(fi32)
			d := demand[fi]
			cl := false
			if active[fi] {
				f := &m.Flows[fi]
				for _, li := range f.Links {
					if s.linkMark[li] == stamp || !a.linkFroze[li] {
						continue
					}
					allow := a.floor[fi] + float64(a.linkLevel[li]*f.Weight)
					if d < 0 || allow < d {
						d = allow
						cl = true
					}
				}
			}
			s.effDem[fi] = d
			s.clamped[fi] = cl
		}

		a.fill(dirtyLinks, movable, active, s.effDem, s.newRate)

		// Verify the boundary: accumulate the usage delta each movable flow
		// pushes onto links outside the region.
		s.bStamp++
		boundary := s.boundary[:0]
		for _, fi32 := range movable {
			fi := int(fi32)
			if s.clamped[fi] {
				if diff := s.newRate[fi] - out[fi]; diff != 0 && math.Abs(diff) <= allocSnapEps*max1(out[fi]) {
					s.newRate[fi] = out[fi]
				}
			}
			delta := s.newRate[fi] - out[fi]
			if delta == 0 {
				continue
			}
			for _, li := range m.Flows[fi].Links {
				if s.linkMark[li] == stamp {
					continue
				}
				if s.bMark[li] != s.bStamp {
					s.bMark[li] = s.bStamp
					s.bDelta[li] = 0
					boundary = append(boundary, int32(li))
				}
				s.bDelta[li] += delta
			}
		}
		expand := false
		for _, li32 := range boundary {
			li := int(li32)
			d := s.bDelta[li]
			grow := false
			if a.linkFroze[li] {
				// Any usage shift moves a binding link's level; it must
				// join the region and re-level.
				grow = d != 0
			} else {
				grow = s.linkUsed[li]+d > s.foldLimit[li]
			}
			if grow {
				s.linkMark[li] = stamp
				dirtyLinks = append(dirtyLinks, li32)
				expand = true
			}
		}
		s.boundary = boundary
		if !expand {
			break
		}

		// Every active flow crossing a region link is movable. dirtyLinks
		// only grows, so each round scans just the newly added links.
		tally[tierRound]++
		for ; scanned < len(dirtyLinks); scanned++ {
			li := int(dirtyLinks[scanned])
			for _, fi32 := range a.flowsOn(li) {
				if active[fi32] && s.flowMark[fi32]&^1 != seen {
					s.flowMark[fi32] = seen
					movable = append(movable, fi32)
				}
			}
		}
		if 2*len(movable) > nf || tally[tierRound] >= incrMaxRounds {
			tally[tierLateFull]++
			s.keep(tally, dirtyFlows, dirtyLinks, movable, tl)
			a.solveTracked(active, demand, out)
			return nf, true
		}
	}

	// Commit: paste the regional solution into the previous one.
	touched += len(movable)
	tl = append(tl, movable...)
	for _, fi32 := range movable {
		fi := int(fi32)
		delta := s.newRate[fi] - out[fi]
		if delta != 0 {
			// Boundary links keep their usage by delta; region links are
			// recomputed exactly below.
			for _, li := range m.Flows[fi].Links {
				if s.linkMark[li] != stamp {
					s.linkUsed[li] += delta
				}
			}
		}
		out[fi] = s.newRate[fi]
		s.act[fi] = active[fi]
		s.dm[fi] = demand[fi]
		s.wt[fi] = m.Flows[fi].Weight
	}
	a.sumLinkUsed(dirtyLinks, active, out)
	tally[tierRegional]++
	s.keep(tally, dirtyFlows, dirtyLinks, movable, tl)
	return touched, false
}

// keep stores one call's tier tally and hands its scratch slices back for
// the next call to reuse.
func (s *incrState) keep(tally [numTiers]int, dirtyFlows, dirtyLinks, movable, tl []int32) {
	s.tally = tally
	s.dirtyFlows = dirtyFlows
	s.dirtyLinks = dirtyLinks
	s.movable = movable
	s.touchedList = tl
}
