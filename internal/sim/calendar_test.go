package sim

import (
	"slices"
	"testing"
	"time"
	"unsafe"
)

// runAt schedules one event per timestamp on each wheel geometry, drains the
// scheduler and requires every event to fire exactly once, in order, at its
// own time.
func runAt(t *testing.T, times []Time) {
	t.Helper()
	for _, g := range diffGeometries {
		s := g.build()
		c := newClosures(s)
		var fired []Time
		for _, at := range times {
			c.at(at, func() { fired = append(fired, s.Now()) })
		}
		if err := s.RunAll(); err != nil {
			t.Fatalf("%s: RunAll: %v", g.name, err)
		}
		if len(fired) != len(times) {
			t.Fatalf("%s: fired %d events (%v), want %d (%v)", g.name, len(fired), fired, len(times), times)
		}
		for i, at := range times {
			if fired[i] != at {
				t.Fatalf("%s: firing sequence %v, want %v", g.name, fired, times)
			}
		}
		if got := s.Processed(); got != uint64(len(times)) {
			t.Fatalf("%s: Processed() = %d, want %d", g.name, got, len(times))
		}
	}
}

// TestCalendarFastForwardNoReplay pins the fix for a consumed-entry replay:
// when the wheel goes idle with only far-future (overflow) work left, peek
// fast-forwards the rotation window onto the overflow minimum and resets the
// cursor — but the bucket the wheel was standing in still holds its consumed
// prefix (buckets are only cleared when the scan moves past them). Without
// clearing that residue at fast-forward time, the reset cursor re-surfaces
// entries that already fired, executing them a second time with a stale
// timestamp and driving simulated time backwards.
func TestCalendarFastForwardNoReplay(t *testing.T) {
	// The near event lands in a bucket; the far event (700ms, beyond either
	// wheel's horizon once the window sits on the near one) waits in the
	// overflow heap. Consuming the near event leaves its consumed entry
	// resident in the bucket with count == 0.
	runAt(t, []Time{Time(time.Millisecond), Time(700 * time.Millisecond)})
}

// TestCalendarRepeatedFastForward drives several idle-gap fast-forwards in a
// row, each leaving consumed residue behind, and checks the firing sequence
// stays strictly monotonic with every event firing exactly once.
func TestCalendarRepeatedFastForward(t *testing.T) {
	runAt(t, []Time{
		Time(500 * time.Microsecond),
		Time(300 * time.Millisecond),
		Time(time.Second),
		Time(2500 * time.Millisecond),
		Time(2500*time.Millisecond + 1),
	})
}

// TestNewSchedulerIdleIsCheap pins that an idle scheduler never builds its
// wheel: the flow backend constructs a throw-away packet cloud (and with it
// a scheduler) per small model.
func TestNewSchedulerIdleIsCheap(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { NewScheduler() }); allocs > 1 {
		t.Fatalf("NewScheduler allocates %.0f objects, want 1", allocs)
	}
	s := NewScheduler()
	newClosures(s).at(time.Hour, func() {})
	if s.q.buckets != nil {
		t.Fatal("wheel built before the first event was due")
	}
}

// idleSink makes NewScheduler's result escape, so the allocation check
// below measures what a caller that keeps the scheduler pays.
var idleSink *Scheduler

// TestNewSchedulerAllocatesAsBefore pins that a scheduler the caller keeps
// but never runs costs one allocation of at most 280 bytes, the size of the
// Scheduler when its wheel had a fixed geometry: the flow backend builds one
// per model, and a batch of figure seeds builds hundreds.
func TestNewSchedulerAllocatesAsBefore(t *testing.T) {
	const parentBytes = 280
	if allocs := testing.AllocsPerRun(100, func() { idleSink = NewScheduler() }); allocs != 1 {
		t.Fatalf("NewScheduler allocates %.0f objects, want 1", allocs)
	}
	if size := unsafe.Sizeof(Scheduler{}); size > parentBytes {
		t.Fatalf("Scheduler is %d bytes, want at most %d", size, parentBytes)
	}
}

// TestCalendarHorizonBoundary places events on, just before and just after
// the edges of the first window of each geometry — the pinned wheels' and
// the adaptive wheel's initial one — and across the next window's start.
func TestCalendarHorizonBoundary(t *testing.T) {
	var times []Time
	for _, edge := range []Time{4 << 15, initialBuckets << initialShift} {
		for _, k := range []Time{1, 2, 3} {
			times = append(times, k*edge-1, k*edge, k*edge+1)
		}
	}
	slices.Sort(times)
	runAt(t, append([]Time{0}, times...))
}

// fanoutScheduler returns a scheduler carrying pending self-reposting
// registered handlers with exponential gaps of the given mean: a steady
// state of pending residents and pending/meanGap events per unit time.
func fanoutScheduler(pending int, meanGap time.Duration) *Scheduler {
	s := NewScheduler()
	rng := NewRNG(1)
	gaps := make([]time.Duration, 4096)
	for i := range gaps {
		gaps[i] = time.Duration(rng.ExpFloat64() * float64(meanGap))
	}
	next := 0
	var hid HandlerID
	hid = s.RegisterHandler(func(arg uint32) {
		next = (next + 1) % len(gaps)
		s.PostHandler(gaps[next], hid, arg)
	})
	for i := 0; i < pending; i++ {
		next = (next + 1) % len(gaps)
		s.PostHandler(gaps[next], hid, uint32(i))
	}
	return s
}

// TestCalendarGeometryFollowsDensity pins that the bucket an event fires
// from holds a few entries whatever the density: 64, 4096 and 65 536
// residents at 1 ms mean gaps, the paper chain's ≈220 residents at ≈8 000
// events per simulated second, and two events per nanosecond, where the
// mean separation is below the 1 ns bucket-width floor. The load is read off
// the wheel after every step (the length of the bucket the wheel stands
// in), so a bucket counts once per entry it fires: the mean per event, which
// bounds the mean per bucket.
func TestCalendarGeometryFollowsDensity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pending int
		meanGap time.Duration
		maxLoad float64
	}{
		{"p64", 64, time.Millisecond, 8},
		{"p4096", 4096, time.Millisecond, 8},
		{"p65536", 65536, time.Millisecond, 8},
		{"paper-chain", 220, 27 * time.Millisecond, 8},
		{"sub-ns", 4096, 2048, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := fanoutScheduler(tc.pending, tc.meanGap)
			steps := max(16*tc.pending, 100_000)
			for i := 0; i < steps; i++ { // past the first window and its re-size
				s.Step()
			}
			load := 0
			for i := 0; i < steps; i++ {
				s.Step()
				load += len(s.q.buckets[s.q.cur])
			}
			mean := float64(load) / float64(steps)
			t.Logf("%.2f entries per firing bucket, %d buckets of 2^%d ns", mean, len(s.q.buckets), s.q.shift)
			if mean > tc.maxLoad {
				t.Fatalf("events fire from buckets of %.1f entries on average, want at most %g (%d buckets of 2^%d ns)",
					mean, tc.maxLoad, len(s.q.buckets), s.q.shift)
			}
			if s.Len() != tc.pending {
				t.Fatalf("Len() = %d, want %d", s.Len(), tc.pending)
			}
		})
	}
}

// denseScheduler returns a scheduler carrying pending self-rescheduling
// handlers with 0–2 ms gaps — about pending/2 events per 1 ms bucket.
func denseScheduler(pending int) *Scheduler {
	s := NewScheduler()
	rng := NewRNG(1)
	gaps := make([]time.Duration, 4099) // prime, so handlers drift across the table
	for i := range gaps {
		gaps[i] = time.Duration(rng.Float64() * float64(2*time.Millisecond))
	}
	next := 0
	var hid HandlerID
	hid = s.RegisterHandler(func(arg uint32) {
		next = (next + 1) % len(gaps)
		if arg&1 == 0 {
			s.PostHandler(gaps[next], hid, arg) // pushed while this entry holds the front
		} else {
			s.RescheduleAfter(gaps[next])
		}
	})
	for i := 0; i < pending; i++ {
		next = (next + 1) % len(gaps)
		s.PostHandler(gaps[next], hid, uint32(i))
	}
	return s
}

// TestCalendarMemoryTracksResidency pins the bound on the calendar's memory:
// after 10⁶ events through a queue that never holds more than 4096, the
// bucket arrays in circulation hold at most four times that — storage
// follows the resident events, not the traffic that passed through each
// bucket — and, capacity having settled, a further Step allocates nothing.
func TestCalendarMemoryTracksResidency(t *testing.T) {
	const pending = 4096
	s := denseScheduler(pending)
	for i := 0; i < 1_000_000; i++ {
		s.Step()
	}
	if s.Len() != pending {
		t.Fatalf("Len() = %d, want %d", s.Len(), pending)
	}
	total := 0
	for _, bk := range s.q.buckets {
		total += cap(bk)
	}
	for _, bk := range s.q.spare {
		total += cap(bk)
	}
	if total > 4*pending {
		t.Fatalf("bucket capacity %d entries for %d pending events, want at most %d", total, pending, 4*pending)
	}
	if allocs := testing.AllocsPerRun(10000, func() { s.Step() }); allocs != 0 {
		t.Fatalf("warm scheduler allocates %.2f objects per Step, want 0", allocs)
	}
}
