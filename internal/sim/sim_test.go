package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []time.Duration
	times := []time.Duration{5 * time.Second, time.Second, 3 * time.Second, 2 * time.Second}
	for _, at := range times {
		at := at
		s.MustAt(at, func() { got = append(got, at) })
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
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.MustAt(time.Second, func() { order = append(order, i) })
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
	s.MustAt(2*time.Second, func() {})
	if !s.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	mustPanic(t, "MustAt in the past", func() { s.MustAt(time.Second, func() {}) })
	mustPanic(t, "MustAfter with negative delay", func() { s.MustAfter(-time.Second, func() {}) })
	mustPanic(t, "PostHandlerAt in the past", func() { s.PostHandlerAt(time.Second, hid, 0) })
	mustPanic(t, "PostHandler on an unregistered id", func() { s.PostHandler(time.Second, hid+1, 0) })
	if s.Len() != 0 {
		t.Errorf("rejected schedules left Len() = %d, want 0", s.Len())
	}
}

func TestScheduleNilCallbackRejected(t *testing.T) {
	s := NewScheduler()
	mustPanic(t, "MustAt with nil callback", func() { s.MustAt(time.Second, nil) })
	mustPanic(t, "RegisterHandler(nil)", func() { s.RegisterHandler(nil) })
}

// TestRescheduleMisuseRejected pins the re-arm panics: outside a callback,
// twice in one callback, and into the past.
func TestRescheduleMisuseRejected(t *testing.T) {
	s := NewScheduler()
	mustPanic(t, "RescheduleAfter outside a callback", func() { s.RescheduleAfter(time.Second) })
	s.MustAt(time.Second, func() {
		mustPanic(t, "negative RescheduleAfter", func() { s.RescheduleAfter(-1) })
		s.RescheduleAfter(time.Second)
		mustPanic(t, "second RescheduleAfter", func() { s.RescheduleAfter(time.Second) })
	})
	if !s.Step() || s.Len() != 1 {
		t.Fatalf("after the misuse callback Len() = %d, want the one re-arm", s.Len())
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.MustAt(time.Second, func() { fired = true })
	e.Cancel()
	if !e.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := NewScheduler()
	fired := false
	late := s.MustAt(2*time.Second, func() { fired = true })
	s.MustAt(time.Second, func() { late.Cancel() })
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired {
		t.Error("event cancelled by an earlier event still fired")
	}
}

// TestHandleRearmKeepsHandle pins the ticker contract: a handle that re-arms
// itself from inside its callback stays the same live, cancellable *Event —
// At() follows the re-arm, and Cancel after n re-arms prevents firing n+1
// and drops Len() by one.
func TestHandleRearmKeepsHandle(t *testing.T) {
	s := NewScheduler()
	fired := 0
	ev := s.MustAfter(time.Second, func() {
		fired++
		s.RescheduleAfter(time.Second)
	})
	s.MustAt(time.Hour, func() {}) // keeps Len() comparisons non-trivial
	for n := 1; n <= 5; n++ {
		if !s.Step() {
			t.Fatalf("Step %d returned false", n)
		}
		if fired != n {
			t.Fatalf("after %d steps the ticker fired %d times", n, fired)
		}
		if want := time.Duration(n+1) * time.Second; ev.At() != want {
			t.Fatalf("after %d firings At() = %v, want %v", n, ev.At(), want)
		}
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len() = %d with the ticker armed, want 2", got)
	}
	ev.Cancel()
	if got := s.Len(); got != 1 {
		t.Fatalf("Len() = %d after cancelling the re-armed ticker, want 1", got)
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired != 5 {
		t.Fatalf("ticker fired %d times, want 5 (cancelled before the 6th)", fired)
	}
	if s.Now() != time.Hour || s.Processed() != 6 {
		t.Fatalf("Now() = %v, Processed() = %d, want 1h and 6", s.Now(), s.Processed())
	}
}

// TestCancelInsideOwnCallback pins that a handle cancelled from inside its
// own callback does not fire again, whichever side of the re-arm the Cancel
// falls on, and that the live count comes out even.
func TestCancelInsideOwnCallback(t *testing.T) {
	for _, cancelFirst := range []bool{true, false} {
		s := NewScheduler()
		fired := 0
		var ev *Event
		ev = s.MustAfter(time.Second, func() {
			fired++
			if cancelFirst {
				ev.Cancel()
			}
			s.RescheduleAfter(time.Second)
			if !cancelFirst {
				ev.Cancel()
			}
		})
		if err := s.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		if fired != 1 || s.Len() != 0 {
			t.Fatalf("cancelFirst=%v: fired %d times with Len() = %d, want 1 and 0", cancelFirst, fired, s.Len())
		}
	}
}

// TestTickerRearmAllocs pins that a periodic handle costs nothing per period
// once armed: no Event, no closure, no queue growth.
func TestTickerRearmAllocs(t *testing.T) {
	s := NewScheduler()
	s.MustAfter(time.Millisecond, func() { s.RescheduleAfter(100 * time.Millisecond) })
	for i := 0; i < 8; i++ {
		s.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.Step() }); allocs != 0 {
		t.Fatalf("re-arming ticker allocates %.1f objects per period, want 0", allocs)
	}
}

func TestRunHorizon(t *testing.T) {
	s := NewScheduler()
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		at := at
		s.MustAt(at, func() { fired = append(fired, at) })
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
	count := 0
	s.MustAt(time.Second, func() { count++; s.Halt() })
	s.MustAt(2*time.Second, func() { count++ })
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
	var ticks []time.Duration
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now())
		if s.Now() < 5*time.Second {
			s.MustAfter(time.Second, tick)
		}
	}
	s.MustAt(time.Second, tick)
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
	for i := 0; i < 7; i++ {
		s.MustAfter(time.Duration(i)*time.Millisecond, func() {})
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
		type stamp struct {
			at  time.Duration
			seq int
		}
		var want, got []stamp
		for i, d := range delaysRaw {
			at := time.Duration(d%64) * time.Millisecond
			want = append(want, stamp{at, i})
			i := i
			s.MustAt(at, func() { got = append(got, stamp{s.Now(), i}) })
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

// TestRandomCancellationProperty verifies that cancelling an arbitrary subset
// of events results in exactly the complement being executed.
func TestRandomCancellationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		total := int(n%50) + 1
		events := make([]*Event, total)
		fired := make([]bool, total)
		for i := 0; i < total; i++ {
			i := i
			events[i] = s.MustAt(time.Duration(rng.Intn(100))*time.Millisecond, func() { fired[i] = true })
		}
		cancelled := make([]bool, total)
		for i := 0; i < total; i++ {
			if rng.Intn(2) == 0 {
				events[i].Cancel()
				cancelled[i] = true
			}
		}
		if err := s.RunAll(); err != nil {
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
