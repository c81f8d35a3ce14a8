package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// refScheduler is a deliberately naive reference implementation of the
// event-queue contract the scheduler must preserve: a sorted list ordered by
// (time, scheduling sequence) — the semantics of the original container/heap
// scheduler. A withdrawn event stays in the list and fires as a no-op, as a
// superseded generation does in model code. A re-arm is an eager insert at
// the instant the real scheduler draws the re-arm sequence, under the same
// handle. The differential tests below run the same
// op programs through both engines and require identical firing sequences,
// so any queue bug that perturbs the total order (and would silently change
// every figure) is caught directly.
type refScheduler struct {
	clock   time.Duration
	seq     uint64
	events  []*refEvent
	cur     *refEvent // executing event, for rearm
	stepped uint64
	stale   uint64           // withdrawn events that fired as no-ops
	fire    func(tag uint32) // registered-handler callback
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
	h   *refHandle
}

// refHandle is the reference's withdrawable handle: it follows its event
// across re-arms.
type refHandle struct{ canceled bool }

func (h *refHandle) cancel() { h.canceled = true }

func (r *refScheduler) insert(t time.Duration, fn func(), h *refHandle) {
	e := &refEvent{at: t, seq: r.seq, fn: fn, h: h}
	r.seq++
	// Insert keeping (at, seq) order; seq is strictly increasing, so among
	// equal times the new event always goes last (FIFO).
	i := sort.Search(len(r.events), func(i int) bool {
		other := r.events[i]
		return other.at > e.at || (other.at == e.at && other.seq > e.seq)
	})
	r.events = append(r.events, nil)
	copy(r.events[i+1:], r.events[i:])
	r.events[i] = e
}

func (r *refScheduler) at(t time.Duration, fn func()) *refHandle {
	h := &refHandle{}
	r.insert(t, fn, h)
	return h
}

func (r *refScheduler) now() time.Duration { return r.clock }

func (r *refScheduler) pending() int { return len(r.events) }

func (r *refScheduler) handle(t time.Duration, fn func()) func() { return r.at(t, fn).cancel }

func (r *refScheduler) post(t time.Duration, tag uint32) {
	r.at(t, func() { r.fire(tag) })
}

func (r *refScheduler) onPost(fire func(tag uint32)) { r.fire = fire }

func (r *refScheduler) rearm(d time.Duration) { r.insert(r.clock+d, r.cur.fn, r.cur.h) }

func (r *refScheduler) step() bool {
	if len(r.events) == 0 {
		return false
	}
	e := r.events[0]
	r.events = r.events[1:]
	r.clock = e.at
	r.stepped++
	if e.h.canceled {
		r.stale++
		return true
	}
	r.cur = e
	e.fn()
	r.cur = nil
	return true
}

func (r *refScheduler) run(horizon time.Duration) {
	for {
		if len(r.events) == 0 || r.events[0].at > horizon {
			break
		}
		r.step()
	}
	if r.clock < horizon {
		r.clock = horizon
	}
}

func (r *refScheduler) runAll() {
	for r.step() {
	}
}

// engine is what the op-program interpreters need of a scheduler; the real
// Scheduler (through simEngine) and refScheduler both provide it, so one
// interpreter drives both sides of every differential.
type engine interface {
	now() time.Duration
	pending() int
	// handle schedules a callback and returns its cancel, which withdraws
	// it: the event still fires, as a no-op.
	handle(at time.Duration, fn func()) (cancel func())
	// post schedules the registered handler with tag; onPost sets what it runs.
	post(at time.Duration, tag uint32)
	onPost(fire func(tag uint32))
	// rearm re-arms the executing event d from now.
	rearm(d time.Duration)
	step() bool
	run(horizon time.Duration)
	runAll()
}

// simEngine adapts a Scheduler to engine. Handles are slots in a table
// served by one registered handler, withdrawn the way model code withdraws
// a posted event: the slot's generation moves on, and the queued entry
// fires as a no-op. A slot is recycled once its event fired without
// re-arming.
type simEngine struct {
	s       *Scheduler
	hid     HandlerID
	slotHid HandlerID
	fire    func(tag uint32)
	slots   []engineSlot
	free    []uint32
	rearmed bool
}

type engineSlot struct {
	fn  func() // nil once withdrawn
	gen uint32
}

func newSimEngine(s *Scheduler) *simEngine {
	e := &simEngine{s: s}
	e.hid = s.RegisterHandler(func(tag uint32) { e.fire(tag) })
	e.slotHid = s.RegisterHandler(e.runSlot)
	return e
}

func (e *simEngine) runSlot(i uint32) {
	e.rearmed = false
	if fn := e.slots[i].fn; fn != nil {
		fn()
	}
	if !e.rearmed {
		e.slots[i].fn = nil
		e.slots[i].gen++
		e.free = append(e.free, i)
	}
}

func (e *simEngine) now() time.Duration { return e.s.Now() }
func (e *simEngine) pending() int       { return e.s.Len() }
func (e *simEngine) handle(at time.Duration, fn func()) func() {
	var i uint32
	if k := len(e.free); k > 0 {
		i, e.free = e.free[k-1], e.free[:k-1]
	} else {
		i = uint32(len(e.slots))
		e.slots = append(e.slots, engineSlot{})
	}
	e.slots[i].fn = fn
	gen := e.slots[i].gen
	e.s.PostHandlerAt(at, e.slotHid, i)
	return func() {
		if e.slots[i].gen == gen {
			e.slots[i].fn = nil
		}
	}
}
func (e *simEngine) post(at time.Duration, tag uint32) { e.s.PostHandlerAt(at, e.hid, tag) }
func (e *simEngine) onPost(fire func(tag uint32))      { e.fire = fire }
func (e *simEngine) rearm(d time.Duration) {
	e.rearmed = true
	e.s.RescheduleAfter(d)
}
func (e *simEngine) step() bool                { return e.s.Step() }
func (e *simEngine) run(horizon time.Duration) { _ = e.s.Run(horizon) }
func (e *simEngine) runAll()                   { _ = e.s.RunAll() }

// firing is one observation of a run: an event firing (ord ≥ 0 is its tag)
// or, after each op of a program, a checkpoint of the clock and the live
// count (ord = -1-Len), so Len and Now are pinned along with the order.
type firing struct {
	at  time.Duration
	ord int
}

// Op-program alphabet, shared by FuzzScheduler and the differential suite.
// Each op is a (code, arg) byte pair; codes are taken modulo numOps.
const (
	opSchedule    = iota // handle at now + arg·scale
	opTie                // handle at the last scheduled instant (FIFO tie)
	opCancel             // withdraw handle arg of those scheduled so far
	opStep               // run one event
	opTicker             // handle that re-arms itself from inside its callback
	opCancelRearm        // withdraw ticker arg, before or after it re-armed
	opPost               // registered-handler post; every third one re-arms once
	opRun                // run to the horizon now + arg·scale
	numOps
)

// tickerFirings is how many times an opTicker handle fires if left alone.
const tickerFirings = 3

// interpret runs an op program against e and returns everything observed.
// Delays are multiplied by scale.
func interpret(e engine, program []byte, scale time.Duration) []firing {
	var (
		seen    []firing
		cancels []func() // opSchedule/opTie handles, in scheduling order
		tickers []func() // opTicker handles
		nexttag int
		lastAt  time.Duration
	)
	note := func(tag int) { seen = append(seen, firing{e.now(), tag}) }
	reposted := map[uint32]bool{}
	e.onPost(func(tag uint32) {
		note(int(tag))
		if tag%3 == 0 && !reposted[tag] {
			reposted[tag] = true
			e.rearm(time.Duration(tag%4) * scale)
		}
	})
	schedule := func(at time.Duration) {
		tag := nexttag
		nexttag++
		cancels = append(cancels, e.handle(at, func() { note(tag) }))
	}
	for i := 0; i+1 < len(program); i += 2 {
		op, arg := program[i]%numOps, program[i+1]
		switch op {
		case opSchedule:
			lastAt = e.now() + time.Duration(arg)*scale
			schedule(lastAt)
		case opTie:
			if lastAt < e.now() {
				lastAt = e.now()
			}
			schedule(lastAt)
		case opCancel:
			if len(cancels) > 0 {
				cancels[int(arg)%len(cancels)]()
			}
		case opStep:
			e.step()
		case opTicker:
			tag := nexttag
			nexttag++
			fires := 0
			period := time.Duration(arg%5) * scale // 0 re-arms at the same instant
			tickers = append(tickers, e.handle(e.now()+time.Duration(arg)*scale, func() {
				note(tag)
				if fires++; fires < tickerFirings {
					e.rearm(period)
				}
			}))
		case opCancelRearm:
			if len(tickers) > 0 {
				tickers[int(arg)%len(tickers)]()
			}
		case opPost:
			tag := nexttag
			nexttag++
			e.post(e.now()+time.Duration(arg)*scale, uint32(tag))
		case opRun:
			e.run(e.now() + time.Duration(arg)*scale)
		}
		seen = append(seen, firing{e.now(), -1 - e.pending()})
	}
	e.runAll()
	seen = append(seen, firing{e.now(), -1 - e.pending()})
	return seen
}

// opPrograms is the FuzzScheduler seed corpus (the f.Add seeds plus the
// regression entries under testdata/fuzz), reused here as deterministic
// differential inputs, plus a long mixed program exercising deep queues.
func opPrograms() [][]byte {
	programs := append([][]byte(nil), fuzzSeeds...)
	programs = append(programs,
		// testdata/fuzz/FuzzScheduler regression entries.
		[]byte{0, 0, 0, 0, 0, 0, 2, 1, 2, 2, 3, 0, 3, 0, 3, 0}, // all-zero-ties
		[]byte{2, 0, 3, 0, 1, 0, 2, 0},                         // cancel-empty-then-tie
		[]byte{0, 255, 0, 1, 0, 128, 3, 0, 0, 2, 3, 0},         // interleaved-steps
		[]byte{0, 5, 1, 0, 1, 0, 2, 1, 3, 0, 3, 0},             // ties-and-cancel
	)
	// A long pseudo-random program (fixed recurrence, no global randomness)
	// that mixes every op and grows the queue well past one bucket.
	long := make([]byte, 0, 2048)
	x := uint32(0x9e3779b9)
	for i := 0; i < 1024; i++ {
		x = x*1664525 + 1013904223
		long = append(long, byte(x>>24), byte(x>>16))
	}
	return append(append(programs, long), resizePrograms()...)
}

// resizePrograms are the generated programs that drive the wheel through
// its re-sizes; FuzzScheduler seeds from them too.
func resizePrograms() [][]byte {
	return [][]byte{swingProgram(), densityJumpProgram(), resizeProgram()}
}

// programRand is the fixed recurrence the generated programs draw from.
type programRand uint32

func (x *programRand) next() byte {
	*x = *x*1664525 + 1013904223
	return byte(*x >> 24)
}

// swingProgram takes the queue from one resident event to about 10⁴ and
// back to one, so the wheel re-sizes on the way up and on the way down.
func swingProgram() []byte {
	x := programRand(1)
	p := []byte{opSchedule, 3, opStep, 0, opSchedule, 9, opStep, 0}
	for i := 0; i < 10_000; i++ {
		p = append(p, opPost, x.next())
		if i%64 == 0 {
			p = append(p, opStep, 0)
		}
	}
	for i := 0; i < 10_000; i++ {
		p = append(p, opStep, 0)
	}
	return append(p, opSchedule, 7, opStep, 0)
}

// densityJumpProgram holds about 500 residents in a steady state of one
// step and one post per cycle, then shrinks the post delays from a mean of
// about 128 units to about one: the event density rises about 100× in the
// middle of a window sized for the sparse half.
func densityJumpProgram() []byte {
	x := programRand(2)
	var p []byte
	for i := 0; i < 500; i++ {
		p = append(p, opPost, x.next())
	}
	for i := 0; i < 5000; i++ {
		p = append(p, opStep, 0, opPost, x.next())
	}
	for i := 0; i < 5000; i++ {
		p = append(p, opStep, 0, opPost, x.next()%3)
	}
	return p
}

// resizeProgram crowds one instant with more entries than a bucket may hold
// before the wheel re-sizes, while tickers re-arm across it, handles are
// withdrawn around it and steps stop part-way through the crowded bucket.
func resizeProgram() []byte {
	x := programRand(3)
	var p []byte
	for c := 0; c < 24; c++ {
		p = append(p, opTicker, x.next()%8, opSchedule, x.next()%16)
		for i := 0; i < 100; i++ {
			p = append(p, opTie, 0)
			if i%9 == 0 {
				p = append(p, opCancel, x.next())
			}
		}
		p = append(p, opTicker, 1, opSchedule, 200+x.next()%56)
		for i := int(x.next() % 64); i > 0; i-- {
			p = append(p, opStep, 0)
		}
		p = append(p, opCancelRearm, x.next(), opRun, x.next()%4)
	}
	return p
}

// diffScales stretch the op programs' byte-valued delays (≤255 units) onto
// three calendar regimes: within one bucket, across buckets within one
// rotation, and across rotations through the overflow heap. The
// bucket-clearing, rewind and window-restart paths only run when
// programs actually cross those boundaries.
var diffScales = []time.Duration{1, 1100 * time.Microsecond, 97 * time.Millisecond}

// diffGeometries name the stores an event can wait in and a wheel that
// makes each one carry the load: the production calendar sizes its wheel
// to the program and re-sizes it as the program runs, the pinned coarse
// wheel keeps dense buckets that are inserted into while they drain,
// and the pinned tiny wheel sends nearly every event through the overflow
// heap and a fast-forward.
var diffGeometries = []struct {
	name  string
	build func() *Scheduler
}{
	{"calendar", NewScheduler},
	{"coarse", func() *Scheduler { return newScheduler(initialShift, initialBuckets) }},
	{"heap", func() *Scheduler { return newScheduler(15, 4) }},
}

// requireSameFirings fails unless got is exactly the reference's sequence
// and virtual time never ran backwards in it.
func requireSameFirings(t *testing.T, got, want []firing) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("observed %d firings and checkpoints, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("observation %d = {at %v, ord %d}, reference {at %v, ord %d}",
				i, got[i].at, got[i].ord, want[i].at, want[i].ord)
		}
		if i > 0 && got[i].at < got[i-1].at {
			t.Fatalf("observation %d: time went backwards, %v after %v", i, got[i].at, got[i-1].at)
		}
	}
}

// diffProgram runs one program at one scale on the scheduler (every
// geometry) and on the reference, and requires identical observations.
func diffProgram(t *testing.T, program []byte, scale time.Duration) {
	t.Helper()
	ref := &refScheduler{}
	want := interpret(ref, program, scale)
	for _, g := range diffGeometries {
		s := g.build()
		got := interpret(newSimEngine(s), program, scale)
		requireSameFirings(t, got, want)
		if s.Processed() != ref.stepped {
			t.Fatalf("%s: Processed() = %d, reference stepped %d", g.name, s.Processed(), ref.stepped)
		}
		if s.Len() != 0 {
			t.Fatalf("%s: queue not drained: Len() = %d", g.name, s.Len())
		}
	}
}

// TestSchedulerDifferential pins the scheduler's total order against the
// reference: identical programs must produce identical firing sequences,
// withdrawn no-ops and re-arms included.
func TestSchedulerDifferential(t *testing.T) {
	for _, scale := range diffScales {
		for pi, program := range opPrograms() {
			t.Run(fmt.Sprintf("scale%v/program%d", scale, pi), func(t *testing.T) {
				diffProgram(t, program, scale)
			})
		}
	}
}

// TestSchedulerDifferentialPost replays the programs with every schedule op
// turned into a plain registered-handler post (cancel ops then find nothing
// to withdraw): posts without a slot table must follow exactly the same
// (time, seq) total order.
func TestSchedulerDifferentialPost(t *testing.T) {
	for _, g := range diffGeometries {
		t.Run(g.name, func(t *testing.T) {
			for _, scale := range diffScales {
				for pi, program := range opPrograms() {
					posts := append([]byte(nil), program...)
					for i := 0; i+1 < len(posts); i += 2 {
						if op := posts[i] % numOps; op == opSchedule || op == opTie || op == opTicker {
							posts[i] = opPost
						}
					}
					t.Run(fmt.Sprintf("scale%v/program%d", scale, pi), func(t *testing.T) {
						got := interpret(newSimEngine(g.build()), posts, scale)
						requireSameFirings(t, got, interpret(&refScheduler{}, posts, scale))
					})
				}
			}
		})
	}
}

// TestSchedulerDifferentialMixed drives every posting shape at once —
// withdrawable callbacks, callbacks that re-arm themselves, registered
// handlers with in-place re-arms, and a second registered handler posted at a
// constant delay the way the link pipeline posts propagation arrivals — through
// deterministic pseudo-random interleavings, in lockstep against the
// reference list, on both wheel geometries, so any drift in sequence
// accounting surfaces as a firing-order mismatch. The event-loop profiler
// rides along at stride 1 and its exact per-kind counts must match the
// reference's manual tally, withdrawn no-ops counted as untagged.
func TestSchedulerDifferentialMixed(t *testing.T) {
	for _, g := range diffGeometries {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				runMixedDifferential(t, g.build(), seed)
			})
		}
	}
}

func runMixedDifferential(t *testing.T, s *Scheduler, seed uint64) {
	const (
		ops        = 800
		rearmDelay = 3 * time.Millisecond
		propDelay  = 2 * time.Millisecond
	)
	prof := NewLoopProfiler(1)
	s.SetProfiler(prof)
	r := &refScheduler{}
	var refCounts [numHandlerKinds]uint64

	type rec struct {
		at  time.Duration
		tag uint32
	}
	var got, want []rec

	// Registered tier: tags divisible by five re-arm themselves once, the
	// shape the link tx handlers use.
	rearmed := map[uint32]bool{}
	refRearmed := map[uint32]bool{}
	hid := s.RegisterHandler(func(arg uint32) {
		s.MarkHandler(KindLinkTx)
		got = append(got, rec{s.Now(), arg})
		if arg%5 == 0 && !rearmed[arg] {
			rearmed[arg] = true
			s.RescheduleAfter(rearmDelay)
		}
	})
	r.fire = func(arg uint32) {
		refCounts[KindLinkTx]++
		want = append(want, rec{r.clock, arg})
		if arg%5 == 0 && !refRearmed[arg] {
			refRearmed[arg] = true
			r.rearm(rearmDelay)
		}
	}

	// Second registered handler: constant-delay posts, so arrival times are
	// monotone and ties against the other tiers are frequent.
	propHid := s.RegisterHandler(func(arg uint32) {
		s.MarkHandler(KindLinkProp)
		got = append(got, rec{s.Now(), arg})
	})

	e := newSimEngine(s)
	var (
		pending    []func()
		refPending []*refHandle
		tag        uint32
		lastAt     time.Duration
	)
	x := seed*0x9e3779b97f4a7c15 + 1
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	for i := 0; i < ops; i++ {
		switch op := next(16); {
		case op < 3: // withdrawable callback (stays KindOther)
			at := s.Now() + time.Duration(next(8_000_000))
			if op == 2 && lastAt >= s.Now() {
				at = lastAt // exact tie with the previous schedule
			}
			lastAt = at
			tg := tag
			tag++
			pending = append(pending, e.handle(at, func() { got = append(got, rec{at, tg}) }))
			refPending = append(refPending, r.at(at, func() {
				refCounts[KindOther]++
				want = append(want, rec{at, tg})
			}))
		case op < 6: // periodic callback, far horizons included; re-arms once
			at := s.Now() + time.Duration(next(300_000_000))
			lastAt = at
			tg := tag
			tag++
			mark := KindMeasure
			if tg&1 == 1 {
				mark = KindControl
			}
			period := time.Duration(next(400_000_000))
			fired, refFired := false, false
			pending = append(pending, e.handle(at, func() {
				s.MarkHandler(mark)
				got = append(got, rec{s.Now(), tg})
				if !fired {
					fired = true
					e.rearm(period)
				}
			}))
			refPending = append(refPending, r.at(at, func() {
				refCounts[mark]++
				want = append(want, rec{r.clock, tg})
				if !refFired {
					refFired = true
					r.rearm(period)
				}
			}))
		case op < 9: // registered handler, may re-arm once
			d := time.Duration(next(5_000_000))
			lastAt = s.Now() + d
			tg := tag
			tag++
			s.PostHandler(d, hid, tg)
			r.post(r.clock+d, tg)
		case op < 11: // constant-delay post on the second handler
			at := s.Now() + propDelay
			tg := tag
			tag++
			s.PostHandler(propDelay, propHid, tg)
			r.at(at, func() {
				refCounts[KindLinkProp]++
				want = append(want, rec{at, tg})
			})
		case op < 13: // withdraw the same pending callback on both sides
			if len(pending) > 0 {
				idx := int(next(uint64(len(pending))))
				pending[idx]()
				refPending[idx].cancel()
			}
		default: // step both sides
			s.Step()
			r.step()
		}
		if s.Len() != r.pending() {
			t.Fatalf("op %d: Len() = %d, reference holds %d live events", i, s.Len(), r.pending())
		}
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	r.runAll()
	refCounts[KindOther] += r.stale

	if len(got) != len(want) {
		t.Fatalf("fired %d events, reference fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("firing %d = {at %v, tag %d}, reference {at %v, tag %d}",
				i, got[i].at, got[i].tag, want[i].at, want[i].tag)
		}
	}
	if s.Processed() != r.stepped {
		t.Fatalf("Processed() = %d, reference stepped %d", s.Processed(), r.stepped)
	}
	if s.Len() != 0 {
		t.Fatalf("queue not drained: Len() = %d", s.Len())
	}
	counts := map[HandlerKind]uint64{}
	for _, st := range prof.Snapshot() {
		counts[st.Kind] = st.Events
	}
	for k := HandlerKind(0); k < numHandlerKinds; k++ {
		if counts[k] != refCounts[k] {
			t.Fatalf("profiler counted %d %v events, reference counted %d", counts[k], k, refCounts[k])
		}
	}
}

// soakProgram drives e through cycles of the long-horizon shape that broke
// the calendar in the past: a dense burst of handles and posts (some
// spawning children, some withdrawn), a partial drain, a lone far-future
// event several rotations out, a late arrival inside the gap the wheel has
// already fast-forwarded across, and the idle gap itself.
func soakProgram(e engine, cycles int, seed uint64) []firing {
	var seen []firing
	x := seed*0x9e3779b97f4a7c15 + 1
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	reposted := map[uint32]bool{}
	e.onPost(func(tag uint32) {
		seen = append(seen, firing{e.now(), int(tag)})
		if tag%4 == 0 && !reposted[tag] {
			reposted[tag] = true
			e.rearm(time.Duration(tag % 3_000_000))
		}
	})
	tag := 0
	for c := 0; c < cycles; c++ {
		var cancels []func()
		for n := 50 + int(next(200)); n > 0; n-- {
			tg := tag
			tag++
			at := e.now() + time.Duration(next(5_000_000))
			if tg%3 == 0 {
				e.post(at, uint32(tg))
				continue
			}
			cancels = append(cancels, e.handle(at, func() {
				seen = append(seen, firing{e.now(), tg})
				if tg%7 == 0 {
					e.post(e.now()+time.Duration(tg%2_000_000), uint32(tg))
				}
			}))
		}
		for i := range cancels {
			if next(10) == 0 {
				cancels[i]()
			}
		}
		e.run(e.now() + time.Duration(next(4_000_000)))
		gap := 300*time.Millisecond + time.Duration(next(uint64(40*time.Second)))
		far := tag
		tag++
		cancelFar := e.handle(e.now()+gap, func() { seen = append(seen, firing{e.now(), far}) })
		e.run(e.now() + 20*time.Millisecond) // drains the burst; the wheel jumps to the far event
		if next(4) == 0 {
			cancelFar()
		}
		late := tag
		tag++
		e.handle(e.now()+time.Duration(next(uint64(gap/2))), func() { seen = append(seen, firing{e.now(), late}) })
		e.run(e.now() + gap)
		seen = append(seen, firing{e.now(), -1 - e.pending()})
		if c%500 == 0 {
			tag = swing(e, tag, next)
			seen = append(seen, firing{e.now(), -1 - e.pending()})
		}
	}
	e.runAll()
	return seen
}

// swing grows the queue to 10⁴ posts over about 2 ms of delays, runs half
// of them, posts 5 000 more 100× denser, and drains to the horizon, so the
// wheel re-sizes with residency rising, with density jumping, and with
// residency falling back to the few events the soak keeps.
func swing(e engine, tag int, next func(uint64) uint64) int {
	for i := 0; i < 10_000; i++ {
		e.post(e.now()+time.Duration(next(2_000_000)), uint32(tag))
		tag++
	}
	e.run(e.now() + time.Millisecond)
	for i := 0; i < 5000; i++ {
		e.post(e.now()+time.Duration(next(20_000)), uint32(tag))
		tag++
	}
	e.run(e.now() + 10*time.Millisecond)
	return tag
}

// TestSchedulerSoak runs the scheduler for 10⁵ simulated seconds (10³ under
// -short) of alternating bursts, multi-rotation idle gaps and withdrawals, with
// a residency swing to 10⁴ and a 100× density jump every 500 cycles,
// against the sorted-list reference: virtual time must never regress and the
// firing sequence must be identical.
func TestSchedulerSoak(t *testing.T) {
	cycles, horizon := 5000, 100_000*time.Second // mean cycle ≈ 20 s of virtual time
	if testing.Short() {
		cycles, horizon = 60, 1000*time.Second
	}
	s := NewScheduler()
	got := soakProgram(newSimEngine(s), cycles, 1)
	want := soakProgram(&refScheduler{}, cycles, 1)
	requireSameFirings(t, got, want)
	if s.Now() < horizon {
		t.Fatalf("soak covered %v of virtual time, want at least %v", s.Now(), horizon)
	}
}
