package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// solveIncrementalParent is solveIncremental as it stood before the full
// fallback was decided during classification, kept verbatim as the
// reference: classify every change, then seed the region from the dirty
// flows, then scan it, and only then test the half-model bound.
func (a *allocator) solveIncrementalParent(active []bool, demand []float64, out []float64, changed []int32) (touched int, full bool) {
	s := a.incr
	if !s.valid {
		a.solveTracked(active, demand, out)
		return len(a.m.Flows), true
	}
	m := a.m
	s.stamp++
	stamp := s.stamp
	dirtyFlows := s.dirtyFlows[:0]
	dirtyLinks := s.dirtyLinks[:0]
	tl := s.touchedList[:0]

	for _, fi32 := range changed {
		fi := int(fi32)
		switch a.classify(fi, active[fi], demand[fi], out) {
		case classFold:
			touched++
			tl = append(tl, fi32)
		case classDirty:
			if s.flowMark[fi] != stamp {
				s.flowMark[fi] = stamp
				dirtyFlows = append(dirtyFlows, fi32)
			}
		}
	}
	if len(dirtyFlows) == 0 {
		s.dirtyFlows = dirtyFlows
		s.dirtyLinks = dirtyLinks
		s.touchedList = tl
		return touched, false
	}

	// Seed the region with every link on every dirty flow's path, then grow
	// it to a self-consistent fixpoint.
	for _, fi32 := range dirtyFlows {
		for _, li := range m.Flows[fi32].Links {
			if s.linkMark[li] != stamp {
				s.linkMark[li] = stamp
				dirtyLinks = append(dirtyLinks, int32(li))
			}
		}
	}
	movable := s.movable[:0]
	movable = append(movable, dirtyFlows...)
	scanned := 0
	for round := 0; ; round++ {
		// Every active flow crossing a region link is movable. dirtyLinks
		// only grows, so each round scans just the newly added links.
		for ; scanned < len(dirtyLinks); scanned++ {
			li := int(dirtyLinks[scanned])
			for _, fi32 := range a.flowsOn(li) {
				if active[fi32] && s.flowMark[fi32] != stamp {
					s.flowMark[fi32] = stamp
					movable = append(movable, fi32)
				}
			}
		}
		if 2*len(movable) > len(m.Flows) || round >= incrMaxRounds {
			s.dirtyFlows = dirtyFlows
			s.dirtyLinks = dirtyLinks
			s.movable = movable
			s.touchedList = tl
			a.solveTracked(active, demand, out)
			return len(m.Flows), true
		}

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

		a.fill(dirtyLinks, movable, nil, active, s.effDem, s.newRate)

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
			c := m.Links[li].Capacity
			grow := false
			if a.linkFroze[li] {
				// Any usage shift moves a binding link's level; it must
				// join the region and re-level.
				grow = d != 0
			} else {
				grow = s.linkUsed[li]+d > c-float64(allocSatMargin*max1(c))
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
	for _, li32 := range dirtyLinks {
		li := int(li32)
		u := 0.0
		for _, fi32 := range a.flowsOn(li) {
			if active[fi32] {
				u += out[fi32]
			}
		}
		s.linkUsed[li] = u
	}
	s.dirtyFlows = dirtyFlows
	s.dirtyLinks = dirtyLinks
	s.movable = movable
	s.touchedList = tl
	return touched, false
}

// fallbackPair runs the production incremental solver and the reference in
// lockstep on one model, each on its own allocator and rate slice.
type fallbackPair struct {
	t              *testing.T
	m              *Model
	cur, ref       *allocator
	curOut, refOut []float64
	active         []bool
	demand         []float64
	tiers          [numTiers]int // summed over the production solver's calls
}

func newFallbackPair(t *testing.T, m *Model) *fallbackPair {
	n := len(m.Flows)
	p := &fallbackPair{
		t: t, m: m, cur: newAllocator(m), ref: newAllocator(m),
		curOut: make([]float64, n), refOut: make([]float64, n),
		active: make([]bool, n), demand: make([]float64, n),
	}
	p.cur.enableIncremental()
	p.ref.enableIncremental()
	return p
}

// step solves one change batch on both sides and requires every observable
// result and every piece of state the next call reads to be identical.
func (p *fallbackPair) step(what string, changed []int32) {
	t := p.t
	t.Helper()
	touched, full := p.cur.solveIncremental(p.active, p.demand, p.curOut, changed)
	refTouched, refFull := p.ref.solveIncrementalParent(p.active, p.demand, p.refOut, changed)
	for k, n := range p.cur.incr.tally {
		p.tiers[k] += n
	}
	if full != refFull || touched != refTouched {
		t.Fatalf("%s: (touched %d, full %v), reference (%d, %v)", what, touched, full, refTouched, refFull)
	}
	if !full && !slices.Equal(p.cur.incr.touchedList, p.ref.incr.touchedList) {
		t.Fatalf("%s: touchedList %v, reference %v", what, p.cur.incr.touchedList, p.ref.incr.touchedList)
	}
	a, b := p.cur, p.ref
	sa, sb := a.incr, b.incr
	for i := range p.m.Flows {
		if math.Float64bits(p.curOut[i]) != math.Float64bits(p.refOut[i]) {
			t.Fatalf("%s flow %d: rate %v, reference %v", what, i, p.curOut[i], p.refOut[i])
		}
		if a.capped[i] != b.capped[i] || a.floor[i] != b.floor[i] || a.freezeLevel[i] != b.freezeLevel[i] {
			t.Fatalf("%s flow %d: freeze facts (capped %v, floor %v, level %v), reference (%v, %v, %v)", what, i,
				a.capped[i], a.floor[i], a.freezeLevel[i], b.capped[i], b.floor[i], b.freezeLevel[i])
		}
		if sa.act[i] != sb.act[i] || sa.dm[i] != sb.dm[i] || sa.wt[i] != sb.wt[i] {
			t.Fatalf("%s flow %d: mirror (act %v, dm %v, wt %v), reference (%v, %v, %v)", what, i,
				sa.act[i], sa.dm[i], sa.wt[i], sb.act[i], sb.dm[i], sb.wt[i])
		}
	}
	for li := range p.m.Links {
		if a.linkFroze[li] != b.linkFroze[li] || a.linkLevel[li] != b.linkLevel[li] || sa.linkUsed[li] != sb.linkUsed[li] {
			t.Fatalf("%s link %d: (froze %v, level %v, used %v), reference (%v, %v, %v)", what, li,
				a.linkFroze[li], a.linkLevel[li], sa.linkUsed[li], b.linkFroze[li], b.linkLevel[li], sb.linkUsed[li])
		}
	}
}

// fallbackChainModel builds a chain of nLinks links with nFlows flows over
// random spans of up to maxSpan links, random weights and a few contracts.
func fallbackChainModel(t *testing.T, rng *rand.Rand, nLinks, nFlows, maxSpan int) *Model {
	t.Helper()
	m := NewModel()
	for i := 0; i < nLinks; i++ {
		if _, err := m.AddLink("L"+strconv.Itoa(i), 100+float64(900*rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nFlows; i++ {
		a := rng.Intn(nLinks)
		b := a + 1 + rng.Intn(minInt(maxSpan, nLinks-a))
		links := make([]int, 0, b-a)
		for l := a; l < b; l++ {
			links = append(links, l)
		}
		f := Flow{Index: i + 1, Weight: 0.5 + float64(5*rng.Float64()), Links: links}
		if rng.Float64() < 0.1 {
			f.MinRate = 10 * rng.Float64()
		}
		if err := m.AddFlow(f); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestEarlyFallbackMatchesParent pins the exactness of deciding the full
// fallback during classification: over random chain models, batches where
// every flow's demand moves (the LIMD epoch) alternate with sparse churn —
// arrivals, departures, weight churn, probes, duplicate entries — and the
// production solver must agree with the reference that classifies and scans
// everything first, bit for bit, in every returned value and every piece of
// state. The run must have exercised all three outcomes: early fallbacks,
// late fallbacks and committed regional solves.
func TestEarlyFallbackMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var tiers [numTiers]int
	for iter := 0; iter < 150; iter++ {
		nLinks := 2 + rng.Intn(30)
		m := fallbackChainModel(t, rng, nLinks, 4+rng.Intn(80), 1+rng.Intn(6))
		p := newFallbackPair(t, m)
		n := len(m.Flows)
		changed := make([]int32, 0, 2*n)
		for i := 0; i < n; i++ {
			p.active[i] = rng.Float64() < 0.8
			p.demand[i] = randomDemand(rng)
			changed = append(changed, int32(i))
		}
		p.step("initial", changed)
		for ev := 0; ev < 30; ev++ {
			changed = changed[:0]
			what := "sparse churn"
			if ev%3 == 0 {
				// Every live flow's demand moves: the epoch batch. The
				// order is sometimes shuffled, and a few entries repeat.
				what = "every-flow batch"
				for i := 0; i < n; i++ {
					if p.active[i] && p.demand[i] >= 0 {
						p.demand[i] *= 0.5 + float64(rng.Float64())
					}
					changed = append(changed, int32(i))
				}
				if rng.Intn(2) == 0 {
					rng.Shuffle(len(changed), func(i, j int) { changed[i], changed[j] = changed[j], changed[i] })
				}
				for j := rng.Intn(3); j > 0; j-- {
					changed = append(changed, int32(rng.Intn(n)))
				}
			} else {
				for j := 1 + rng.Intn(1+n/4); j > 0; j-- {
					i := rng.Intn(n)
					switch rng.Intn(8) {
					case 0:
						p.active[i] = false
						p.demand[i] = 0
					case 1:
						p.active[i] = true
						p.demand[i] = randomDemand(rng)
					case 2, 3:
						m.Flows[i].Weight = 0.5 + float64(5*rng.Float64())
					case 4:
						if p.active[i] && p.demand[i] >= 0 {
							p.demand[i]++
						}
					default:
						if p.active[i] {
							p.demand[i] = randomDemand(rng)
						}
					}
					changed = append(changed, int32(i))
				}
			}
			p.step(fmt.Sprintf("model %d event %d (%s)", iter, ev, what), changed)
		}
		for k, c := range p.tiers {
			tiers[k] += c
		}
	}
	t.Logf("tiers: %v", tiers)
	for _, k := range []int{tierEarlyFull, tierLateFull, tierRegional} {
		if tiers[k] == 0 {
			t.Errorf("no %s in the run: the test no longer exercises that outcome", tierNames[k])
		}
	}
}
