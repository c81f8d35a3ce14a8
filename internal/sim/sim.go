// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate on which the packet-level network simulator is
// built (the role ns-2's scheduler plays in the original Corelite
// evaluation). It offers a virtual clock, an event queue with stable FIFO
// ordering for simultaneous events, and seeded random number streams so that
// every run is exactly reproducible.
//
// The engine is single-threaded by design: events execute sequentially in
// timestamp order, so model code needs no locking and every simulation with
// the same seed produces the same trace.
//
// # Memory model
//
// A queued event is a 24-byte pointer-free struct — (time, sequence, handler
// id, arg) — stored inline in the queue's backing arrays. Because the
// entries hold no pointers, the garbage collector never scans the queue and
// reordering it (the bucket sorts of the calendar, the sift loops of its
// overflow heap) is pure memory movement with no write barriers; ordering
// comparisons read the key straight out of the array.
//
// Every event runs a registered handler: RegisterHandler adds a
// func(arg uint32) callback to a table once per model object, and
// PostHandler/PostHandlerAt queue (id, arg). The arg typically indexes a
// caller-side pool (the in-flight timer records of the link pipeline, the
// pending control messages) or carries a generation. Scheduling writes no
// pointers anywhere and allocates nothing.
//
// A handler may re-arm its own event with RescheduleAfter: the event fires
// again later with the same arg, under a sequence number drawn at the call,
// which is how the periodic tickers (router and edge epochs, samplers) run
// for a whole simulation.
//
// There is no cancel. A model that must withdraw a posted event keeps a
// generation counter, posts the current generation as the arg, and bumps
// the counter to withdraw; the stale entry still fires, and its handler
// sees the old generation and returns (workload.Pacer's releases, the TCP
// retransmission timer, the epoch tickers). The no-op counts as a
// processed event.
//
// # The queue
//
// Pending events live in one calendar queue (calendar.go) that sizes itself:
// each time its window restarts, the bucket width follows the observed mean
// separation of events and the bucket count follows the resident count, so
// a bucket holds a few entries at any density. The (time, sequence) total
// order is pinned against a sorted-list reference by the differential suite
// in differential_test.go, on the self-sizing wheel and on pinned ones.
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

// HandlerID selects the registered handler a queue entry runs. Id 0 is
// never handed out, so callers may use it as "not registered".
type HandlerID uint32

// hidFirst is the first id RegisterHandler returns.
const hidFirst HandlerID = 1

// Scheduler owns the virtual clock and the pending-event queue. Construct one
// with NewScheduler; the zero value has no calendar geometry and is not usable.
type Scheduler struct {
	now  Time
	seq  uint64
	live int // queued events

	q calendarQueue

	// handlers is the dispatch table; slots below hidFirst are unused.
	handlers []func(arg uint32)

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
	return &Scheduler{q: calendarQueue{shift: initialShift, nbuckets: initialBuckets}}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len reports the number of events still queued; the currently executing
// event is not counted while its callback runs.
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

// RescheduleAfter re-arms the currently executing event to fire again d
// after the current time — exactly as if the callback had scheduled itself
// afresh at this point (the sequence number is drawn here, so tie ordering
// against other events scheduled in the same callback is identical to that
// spelling), keeping its handler and arg. It panics when called outside an
// event callback, called twice within one callback, or given a negative
// delay.
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

// exec runs the entry at the front of the queue. The entry stays there
// while its handler runs (new events sort strictly after it, so it remains
// the minimum); afterwards it is dropped and, when the handler re-armed it,
// queued again under the new key.
func (s *Scheduler) exec(e *entry) {
	s.now = e.at
	s.stepped++
	s.live--
	hid, arg := e.hid, e.arg
	s.rearmSet = false
	s.inStep = true
	p := s.prof
	if p != nil {
		p.begin()
	}
	s.handlers[hid](arg)
	if p != nil {
		p.end()
	}
	s.inStep = false
	s.q.dropMin()
	if s.rearmSet {
		s.q.push(entry{at: s.rearmAt, seq: s.rearmSeq, hid: hid, arg: arg})
	}
}

// Step executes the single earliest pending event. It reports whether an
// event was executed (false when the queue is empty). Step must not be
// called from within an event callback.
func (s *Scheduler) Step() bool {
	e, ok := s.q.peek()
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
		e, ok := s.q.peek()
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
