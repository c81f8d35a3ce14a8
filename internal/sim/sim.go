// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate on which the packet-level network simulator is
// built (the role ns-2's scheduler plays in the original Corelite
// evaluation). It offers a virtual clock, an event queue with stable FIFO
// ordering for simultaneous events, cancellable timers, and seeded random
// number streams so that every run is exactly reproducible.
//
// The engine is single-threaded by design: events execute sequentially in
// timestamp order, so model code needs no locking and every simulation with
// the same seed produces the same trace.
//
// # Memory model
//
// A queued event is a 24-byte pointer-free struct — (time, sequence, packed
// handler id, arg) — stored inline in the queue's backing arrays. Because
// the entries hold no pointers, the garbage collector never scans the queue
// and reordering it (the bucket sorts of the calendar, the sift loops of its
// overflow heap) is pure memory movement with no write barriers; ordering
// comparisons read the key straight out of the array. What an entry *runs*
// is resolved through the handler id at dispatch time. Two tiers:
//
//   - Registered handlers (RegisterHandler + PostHandler/PostHandlerAt): the
//     handler id indexes a table of func(arg uint32) callbacks registered
//     once per run; the arg typically indexes a caller-side pool (e.g. the
//     in-flight timer records of the link pipeline). Scheduling one of these
//     writes no pointers anywhere — this is the hot-path tier.
//   - Handles (MustAt/MustAfter): a cancellable, re-armable *Event. Handles
//     are never recycled (a stale handle after the event fired must stay a
//     safe no-op), so each call allocates one Event record; the entry's arg
//     names the scheduler slot holding it.
//
// A callback of either tier may re-arm its own event with RescheduleAfter:
// the event fires again later under a sequence number drawn at the call, and
// a handle stays the same live handle — still cancellable — which is how
// the periodic tickers (router and edge epochs, samplers) run on one Event
// for a whole simulation.
//
// # The queue
//
// Pending events live in one calendar queue (calendar.go) with a fixed
// geometry. Cancel is lazy: it flags the handle, Len stops counting it at
// once, and the stale entry is discarded when it reaches the front. The
// (time, sequence) total order is pinned against a sorted-list reference by
// the differential suite in differential_test.go.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Time is a virtual timestamp measured as an offset from the start of the
// simulation. The simulation clock starts at zero.
type Time = time.Duration

// ErrHalted is returned by Run when Halt was called before the horizon was
// reached.
var ErrHalted = errors.New("simulation halted")

// entry is one queued event: 24 pointer-free bytes. The key (at, seq) orders
// the queue; (hid, arg) says what to run — see the package comment's memory
// model.
type entry struct {
	at  Time
	seq uint64
	hid HandlerID
	arg uint32
}

// less orders entries by (time, sequence) so that events scheduled for the
// same instant fire in scheduling order (stable FIFO tie-break).
func less(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// HandlerID selects what a queue entry runs: hidHandle is the built-in
// handle tier, RegisterHandler hands out the rest.
type HandlerID uint32

const (
	// hidHandle: arg is a slot in Scheduler.evs holding a live *Event.
	hidHandle HandlerID = 0
	// hidFirst is the first id RegisterHandler returns.
	hidFirst HandlerID = 1
)

// Event is a scheduled callback handle. It is returned by MustAt/MustAfter
// so that callers may cancel the event before it fires; a callback that
// re-arms itself with RescheduleAfter keeps the same handle.
type Event struct {
	at       Time
	fn       func()
	sched    *Scheduler
	slot     uint32 // scheduler evs slot while queued or executing
	queued   bool   // an entry for this handle is waiting in the queue
	canceled bool
}

// At reports the virtual time at which the event is (or was) scheduled to
// fire.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event from firing (again). Len() stops counting it at
// once; the queue entry is flagged and discarded when it reaches the front.
// Cancelling an event that already fired or was already cancelled is a
// no-op, and a cancelled handle cannot be re-armed. Cancel must only be
// called from within the simulation (i.e. from event callbacks or before
// Run), never from another goroutine.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	if e.queued {
		e.queued = false
		e.sched.live--
	}
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Scheduler owns the virtual clock and the pending-event queue. Construct one
// with NewScheduler; the zero value has no calendar geometry and is not usable.
type Scheduler struct {
	now  Time
	seq  uint64
	live int // queued non-cancelled events

	q calendarQueue

	// handlers is the registered-handler dispatch table; slots below
	// hidFirst are reserved for the handle tier.
	handlers []func(arg uint32)
	// evs parks handle-tier events, free-listed so a slot is reused once
	// its event fired or its cancelled entry was discarded.
	evs    []*Event
	evFree []uint32

	halted  bool
	stepped uint64
	prof    *LoopProfiler // nil unless the event-loop profiler is attached

	inStep   bool
	rearmAt  Time
	rearmSeq uint64
	rearmSet bool
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return newScheduler(calendarWidth, calendarBuckets)
}

// newScheduler builds a scheduler on a calendar of the given geometry; tests
// use small wheels to reach the rotation and fast-forward paths quickly.
func newScheduler(width Time, buckets int) *Scheduler {
	return &Scheduler{q: calendarQueue{width: width, nbuckets: buckets}}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len reports the number of live events still queued: cancelled events stop
// counting the moment Cancel returns, and the currently executing event is
// not counted while its callback runs.
func (s *Scheduler) Len() int { return s.live }

// Processed reports how many events have been executed so far.
func (s *Scheduler) Processed() uint64 { return s.stepped }

// RegisterHandler adds f to the dispatch table and returns its id for use
// with PostHandler/PostHandlerAt. Handlers are registered once (typically at
// model construction) and never unregistered; the arg passed at scheduling
// time is handed back to f verbatim, so callers use it to index their own
// pooled state. Registering is not for per-event use — that is what the arg
// is for.
func (s *Scheduler) RegisterHandler(f func(arg uint32)) HandlerID {
	if f == nil {
		panic(errors.New("sim: register nil handler"))
	}
	if s.handlers == nil {
		s.handlers = make([]func(uint32), hidFirst, 8)
	}
	id := HandlerID(len(s.handlers))
	s.handlers = append(s.handlers, f)
	return id
}

// badSchedule panics with the programming error a scheduling call tripped
// on: a timestamp in the past, or an id RegisterHandler never returned. It
// is out of line so that the checks themselves inline into the posting path.
func (s *Scheduler) badSchedule(t Time, id HandlerID) {
	if t < s.now {
		panic(fmt.Errorf("sim: schedule at %v before now %v", t, s.now))
	}
	panic(fmt.Errorf("sim: post unregistered handler %d", id))
}

// PostHandlerAt schedules registered handler id to run with arg at absolute
// time t. Nothing is allocated and no pointer is written anywhere: the event
// is 24 flat bytes in the queue. It panics when t is in the past or id is
// unregistered.
func (s *Scheduler) PostHandlerAt(t Time, id HandlerID, arg uint32) {
	if t < s.now || id < hidFirst || int(id) >= len(s.handlers) {
		s.badSchedule(t, id)
	}
	s.q.push(entry{at: t, seq: s.seq, hid: id, arg: arg})
	s.seq++
	s.live++
}

// PostHandler schedules registered handler id to run d after the current
// virtual time (see PostHandlerAt).
func (s *Scheduler) PostHandler(d time.Duration, id HandlerID, arg uint32) {
	s.PostHandlerAt(s.now+d, id, arg)
}

// MustAt schedules fn to run at absolute virtual time t and returns the
// handle that cancels it. Scheduling in the past or with a nil callback is
// a bug in the model, so it panics rather than silently reordering time.
func (s *Scheduler) MustAt(t Time, fn func()) *Event {
	if t < s.now {
		s.badSchedule(t, hidHandle)
	}
	if fn == nil {
		panic(errors.New("sim: schedule nil callback"))
	}
	ev := &Event{at: t, fn: fn, sched: s, queued: true}
	if k := len(s.evFree); k > 0 {
		ev.slot = s.evFree[k-1]
		s.evFree = s.evFree[:k-1]
		s.evs[ev.slot] = ev
	} else {
		ev.slot = uint32(len(s.evs))
		s.evs = append(s.evs, ev)
	}
	s.q.push(entry{at: t, seq: s.seq, hid: hidHandle, arg: ev.slot})
	s.seq++
	s.live++
	return ev
}

// MustAfter schedules fn to run d after the current virtual time (see
// MustAt); a negative d panics.
func (s *Scheduler) MustAfter(d time.Duration, fn func()) *Event {
	return s.MustAt(s.now+d, fn)
}

// releaseEv retires a handle whose entry left the queue for good.
func (s *Scheduler) releaseEv(ev *Event) {
	ev.fn = nil
	s.evs[ev.slot] = nil
	s.evFree = append(s.evFree, ev.slot)
}

// RescheduleAfter re-arms the currently executing event to fire again d
// after the current time — exactly as if the callback had scheduled itself
// afresh at this point (the sequence number is drawn here, so tie ordering
// against other events scheduled in the same callback is identical to that
// spelling), except nothing is allocated: a registered handler keeps its
// arg, and a handle stays the same live *Event, cancellable as before. It
// panics when called outside an event callback, called twice within one
// callback, or given a negative delay.
func (s *Scheduler) RescheduleAfter(d time.Duration) {
	if d < 0 {
		panic(fmt.Errorf("sim: RescheduleAfter with negative delay %v", d))
	}
	if !s.inStep {
		panic(errors.New("sim: reschedule outside an event callback"))
	}
	if s.rearmSet {
		panic(errors.New("sim: reschedule called twice in one callback"))
	}
	s.rearmAt = s.now + d
	s.rearmSeq = s.seq
	s.rearmSet = true
	s.seq++
	s.live++
}

// Halt stops Run before the horizon. It is intended to be called from within
// an event callback (e.g. when a termination condition is detected).
func (s *Scheduler) Halt() { s.halted = true }

// peekLive surfaces the earliest live entry without removing it, discarding
// cancelled handles on the way. The pointer is valid only until the next
// queue operation; callers copy what they need.
func (s *Scheduler) peekLive() (*entry, bool) {
	for {
		e, ok := s.q.peek()
		if !ok {
			return nil, false
		}
		if e.hid == hidHandle {
			if ev := s.evs[e.arg]; ev.canceled {
				s.releaseEv(ev)
				s.q.dropMin()
				continue
			}
		}
		return e, true
	}
}

// exec runs the entry peekLive just surfaced. The entry stays at the front
// of the queue while its callback runs (new events sort strictly after it,
// so it remains the minimum); afterwards it is dropped and, when the
// callback re-armed it, queued again under the new key.
func (s *Scheduler) exec(e *entry) {
	s.now = e.at
	s.stepped++
	s.live--
	hid, arg := e.hid, e.arg
	var ev *Event
	if hid == hidHandle {
		ev = s.evs[arg]
		ev.queued = false
	}
	s.rearmSet = false
	s.inStep = true
	p := s.prof
	if p != nil {
		p.begin()
	}
	if ev != nil {
		ev.fn()
	} else {
		s.handlers[hid](arg)
	}
	if p != nil {
		p.end()
	}
	s.inStep = false
	s.q.dropMin()
	if !s.rearmSet {
		if ev != nil {
			s.releaseEv(ev)
		}
		return
	}
	if ev != nil {
		if ev.canceled {
			// Re-armed and cancelled in the same callback: the re-arm's
			// count is withdrawn with the handle.
			s.live--
			s.releaseEv(ev)
			return
		}
		ev.at, ev.queued = s.rearmAt, true
	}
	s.q.push(entry{at: s.rearmAt, seq: s.rearmSeq, hid: hid, arg: arg})
}

// Step executes the single earliest pending event. It reports whether an
// event was executed (false when the queue is empty). Step must not be
// called from within an event callback.
func (s *Scheduler) Step() bool {
	e, ok := s.peekLive()
	if !ok {
		return false
	}
	s.exec(e)
	return true
}

// Run executes events in order until the queue is empty, the next event lies
// beyond the horizon, or Halt is called. On return the clock is at the time
// of the last executed event (or at horizon when the queue drained past it).
// Run returns ErrHalted if the run was stopped by Halt.
func (s *Scheduler) Run(horizon Time) error {
	s.halted = false
	for !s.halted {
		e, ok := s.peekLive()
		if !ok || e.at > horizon {
			if s.now < horizon {
				s.now = horizon
			}
			return nil
		}
		s.exec(e)
	}
	return ErrHalted
}

// RunAll executes events until the queue is empty or Halt is called.
func (s *Scheduler) RunAll() error {
	s.halted = false
	for !s.halted {
		if !s.Step() {
			return nil
		}
	}
	return ErrHalted
}
