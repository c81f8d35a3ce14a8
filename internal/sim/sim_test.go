package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// closures runs test callbacks through one registered handler: each
// callback gets a slot in a table, and the posted arg names the slot. A
// withdrawn slot still fires, as a no-op — the generation idiom model code
// uses to take back a posted event, reduced to a nil check.
type closures struct {
	s   *Scheduler
	hid HandlerID
	fns []func()
}

func newClosures(s *Scheduler) *closures {
	c := &closures{s: s}
	c.hid = s.RegisterHandler(func(arg uint32) {
		if fn := c.fns[arg]; fn != nil {
			fn()
		}
	})
	return c
}

// at posts fn at absolute time t and returns its slot.
func (c *closures) at(t Time, fn func()) uint32 {
	i := uint32(len(c.fns))
	c.fns = append(c.fns, fn)
	c.s.PostHandlerAt(t, c.hid, i)
	return i
}

// after posts fn d after the current time and returns its slot.
func (c *closures) after(d time.Duration, fn func()) uint32 {
	return c.at(c.s.Now()+d, fn)
}

// withdraw turns slot i's pending firings into no-ops.
func (c *closures) withdraw(i uint32) { c.fns[i] = nil }

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	c := newClosures(s)
	var got []time.Duration
	times := []time.Duration{5 * time.Second, time.Second, 3 * time.Second, 2 * time.Second}
	for _, at := range times {
		at := at
		c.at(at, func() { got = append(got, at) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := append([]time.Duration(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want 5s", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewScheduler()
	c := newClosures(s)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.at(time.Second, func() { order = append(order, i) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", order)
		}
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestSchedulePastRejected(t *testing.T) {
	s := NewScheduler()
	hid := s.RegisterHandler(func(uint32) {})
	s.PostHandlerAt(2*time.Second, hid, 0)
	if !s.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	mustPanic(t, "PostHandler with negative delay", func() { s.PostHandler(-time.Second, hid, 0) })
	mustPanic(t, "PostHandler on the unregistered id 0", func() { s.PostHandler(time.Second, 0, 0) })
	mustPanic(t, "PostHandlerAt in the past", func() { s.PostHandlerAt(time.Second, hid, 0) })
	mustPanic(t, "PostHandler on an unregistered id", func() { s.PostHandler(time.Second, hid+1, 0) })
	if s.Len() != 0 {
		t.Errorf("rejected schedules left Len() = %d, want 0", s.Len())
	}
}

func TestScheduleNilCallbackRejected(t *testing.T) {
	s := NewScheduler()
	mustPanic(t, "RegisterHandler(nil)", func() { s.RegisterHandler(nil) })
}

// TestRescheduleMisuseRejected pins the re-arm panics: outside a callback,
// twice in one callback, and into the past.
func TestRescheduleMisuseRejected(t *testing.T) {
	s := NewScheduler()
	mustPanic(t, "RescheduleAfter outside a callback", func() { s.RescheduleAfter(time.Second) })
	newClosures(s).at(time.Second, func() {
		mustPanic(t, "negative RescheduleAfter", func() { s.RescheduleAfter(-1) })
		s.RescheduleAfter(time.Second)
		mustPanic(t, "second RescheduleAfter", func() { s.RescheduleAfter(time.Second) })
	})
	if !s.Step() || s.Len() != 1 {
		t.Fatalf("after the misuse callback Len() = %d, want the one re-arm", s.Len())
	}
}

// TestCancel pins the withdraw idiom: a withdrawn event still fires, as a
// counted no-op that advances the clock, and its callback never runs.
func TestCancel(t *testing.T) {
	s := NewScheduler()
	c := newClosures(s)
	fired := false
	c.withdraw(c.at(time.Second, func() { fired = true }))
	if s.Len() != 1 {
		t.Fatalf("Len() = %d after withdrawing, want the stale entry still queued", s.Len())
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired {
		t.Error("withdrawn event ran its callback")
	}
	if s.Processed() != 1 || s.Now() != time.Second || s.Len() != 0 {
		t.Errorf("Processed() = %d, Now() = %v, Len() = %d, want the no-op counted at 1s and an empty queue",
			s.Processed(), s.Now(), s.Len())
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := NewScheduler()
	c := newClosures(s)
	fired := false
	late := c.at(2*time.Second, func() { fired = true })
	c.at(time.Second, func() { c.withdraw(late) })
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired {
		t.Error("event withdrawn by an earlier event still ran")
	}
}

// TestRearmKeepsArg pins the ticker contract: a handler that re-arms itself
// from inside its callback fires again with the same arg, Len() counts the
// re-arm, and withdrawing it after n re-arms stops the callbacks while the
// stale entry still fires once as a no-op.
func TestRearmKeepsArg(t *testing.T) {
	s := NewScheduler()
	var args []uint32
	gen := uint32(7)
	hid := s.RegisterHandler(func(arg uint32) {
		if arg != gen {
			return
		}
		args = append(args, arg)
		s.RescheduleAfter(time.Second)
	})
	s.PostHandler(time.Second, hid, gen)
	newClosures(s).at(time.Hour, func() {}) // keeps Len() comparisons non-trivial
	for n := 1; n <= 5; n++ {
		if !s.Step() {
			t.Fatalf("Step %d returned false", n)
		}
		if len(args) != n || args[n-1] != 7 || s.Now() != time.Duration(n)*time.Second {
			t.Fatalf("after %d steps: args %v at %v", n, args, s.Now())
		}
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len() = %d with the ticker armed, want 2", got)
	}
	gen++
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(args) != 5 {
		t.Fatalf("ticker ran %d times, want 5 (withdrawn before the 6th)", len(args))
	}
	if s.Now() != time.Hour || s.Processed() != 7 {
		t.Fatalf("Now() = %v, Processed() = %d, want 1h and 7 (5 ticks, the stale one, the far event)",
			s.Now(), s.Processed())
	}
}

// TestCancelInsideOwnCallback pins that a ticker withdrawn from inside its
// own callback runs no further callback, whichever side of the re-arm the
// withdraw falls on, and that the queue drains.
func TestCancelInsideOwnCallback(t *testing.T) {
	for _, withdrawFirst := range []bool{true, false} {
		s := NewScheduler()
		c := newClosures(s)
		fired := 0
		var slot uint32
		slot = c.after(time.Second, func() {
			fired++
			if withdrawFirst {
				c.withdraw(slot)
			}
			s.RescheduleAfter(time.Second)
			if !withdrawFirst {
				c.withdraw(slot)
			}
		})
		if err := s.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		if fired != 1 || s.Len() != 0 || s.Processed() != 2 {
			t.Fatalf("withdrawFirst=%v: fired %d times with Len() = %d, Processed() = %d, want 1, 0 and 2",
				withdrawFirst, fired, s.Len(), s.Processed())
		}
	}
}

// TestTickerRearmAllocs pins that a periodic handler costs nothing per
// period once armed: no closure, no queue growth.
func TestTickerRearmAllocs(t *testing.T) {
	s := NewScheduler()
	hid := s.RegisterHandler(func(uint32) { s.RescheduleAfter(100 * time.Millisecond) })
	s.PostHandler(time.Millisecond, hid, 0)
	for i := 0; i < 8; i++ {
		s.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.Step() }); allocs != 0 {
		t.Fatalf("re-arming ticker allocates %.1f objects per period, want 0", allocs)
	}
}

func TestRunHorizon(t *testing.T) {
	s := NewScheduler()
	c := newClosures(s)
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		at := at
		c.at(at, func() { fired = append(fired, at) })
	}
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now() = %v after horizon run, want 2s", s.Now())
	}
	// The remaining event still fires on a later run.
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want horizon 5s when queue drained", s.Now())
	}
}

func TestHalt(t *testing.T) {
	s := NewScheduler()
	c := newClosures(s)
	count := 0
	c.at(time.Second, func() { count++; s.Halt() })
	c.at(2*time.Second, func() { count++ })
	err := s.Run(10 * time.Second)
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("Run returned %v, want ErrHalted", err)
	}
	if count != 1 {
		t.Errorf("executed %d events, want 1 (halted after first)", count)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	c := newClosures(s)
	var ticks []time.Duration
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now())
		if s.Now() < 5*time.Second {
			c.after(time.Second, tick)
		}
	}
	c.at(time.Second, tick)
	if err := s.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(ticks), ticks)
	}
	for i, at := range ticks {
		if want := time.Duration(i+1) * time.Second; at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestProcessedCount(t *testing.T) {
	s := NewScheduler()
	c := newClosures(s)
	for i := 0; i < 7; i++ {
		c.after(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if s.Processed() != 7 {
		t.Errorf("Processed() = %d, want 7", s.Processed())
	}
}

// TestHeapOrderingProperty verifies with random event sets that execution
// order is exactly (time, scheduling order).
func TestHeapOrderingProperty(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		s := NewScheduler()
		c := newClosures(s)
		type stamp struct {
			at  time.Duration
			seq int
		}
		var want, got []stamp
		for i, d := range delaysRaw {
			at := time.Duration(d%64) * time.Millisecond
			want = append(want, stamp{at, i})
			i := i
			c.at(at, func() { got = append(got, stamp{s.Now(), i}) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if err := s.RunAll(); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRandomCancellationProperty verifies that withdrawing an arbitrary
// subset of events results in exactly the complement running, while every
// entry, withdrawn or not, is processed.
func TestRandomCancellationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		c := newClosures(s)
		total := int(n%50) + 1
		events := make([]uint32, total)
		fired := make([]bool, total)
		for i := 0; i < total; i++ {
			i := i
			events[i] = c.at(time.Duration(rng.Intn(100))*time.Millisecond, func() { fired[i] = true })
		}
		cancelled := make([]bool, total)
		for i := 0; i < total; i++ {
			if rng.Intn(2) == 0 {
				c.withdraw(events[i])
				cancelled[i] = true
			}
		}
		if err := s.RunAll(); err != nil || s.Processed() != uint64(total) {
			return false
		}
		for i := 0; i < total; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a := NewRNG(42).Stream("alpha")
	b := NewRNG(42).Stream("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams alpha/beta coincide on %d of 100 draws", same)
	}
	// Same name must reproduce the same stream.
	c := NewRNG(42).Stream("alpha")
	d := NewRNG(42).Stream("alpha")
	for i := 0; i < 100; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("same-named streams diverged")
		}
	}
}

func TestBernoulliBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 50; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(7)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if freq < 0.27 || freq > 0.33 {
		t.Errorf("Bernoulli(0.3) frequency = %.3f, want ~0.3", freq)
	}
}
