package netem

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestDropsWhileLinkBusyConservation exercises the drop path while the
// transmitter is occupied: overflow drops at injection time, drops against
// a queue that is full because service is slow, and a late packet that
// arrives after the queue drains. Conservation must hold at a mid-service
// instant (packets split between delivered, dropped, and in flight) and at
// the end (nothing in flight).
func TestDropsWhileLinkBusyConservation(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	mustNode(t, n, "B")
	// 8 kbit/s: a 1000-byte packet occupies the transmitter for 1 s.
	l := mustLink(t, n, "A", "B", LinkConfig{RateBps: 8e3, Delay: time.Millisecond, Queue: NewDropTail(1)})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	sink := &sinkApp{now: s.Now}
	n.Node("B").SetApp(sink)

	inject := func(seq int64) {
		n.Node("A").Inject(packet.New(packet.FlowID{Edge: "A", Local: 1}, "B", seq, s.Now()))
	}
	// t=0 burst of 4: one into service, one queued, two overflow.
	for i := int64(0); i < 4; i++ {
		inject(i)
	}
	// t=0.5s, mid-service with the queue full: both drop, and the
	// conservation identity must balance with two packets in flight.
	postAt(s, 500*time.Millisecond, func() {
		inject(4)
		inject(5)
		if !l.Busy() {
			t.Error("link idle mid-service")
		}
		st := n.Stats()
		if got := st.Delivered + st.Dropped + l.Stats().InFlight(); got != st.Injected {
			t.Errorf("mid-service: delivered %d + dropped %d + in flight %d != injected %d",
				st.Delivered, st.Dropped, l.Stats().InFlight(), st.Injected)
		}
	})
	// t=2.5s: both survivors transmitted, queue empty — a late packet must
	// be accepted, not dropped.
	postAt(s, 2500*time.Millisecond, func() {
		if l.Busy() || l.Queue().Len() != 0 {
			t.Errorf("link not drained at 2.5s: busy=%v queue=%d", l.Busy(), l.Queue().Len())
		}
		inject(6)
	})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}

	st := n.Stats()
	if st.Injected != 7 || st.Delivered != 3 || st.Dropped != 4 {
		t.Errorf("injected/delivered/dropped = %d/%d/%d, want 7/3/4",
			st.Injected, st.Delivered, st.Dropped)
	}
	ls := l.Stats()
	if ls.InFlight() != 0 {
		t.Errorf("link still holds %d packets after RunAll", ls.InFlight())
	}
	if ls.DroppedOverflow != 4 {
		t.Errorf("DroppedOverflow = %d, want 4", ls.DroppedOverflow)
	}
	if got := l.Monitor().Length(); got != l.Queue().Len() {
		t.Errorf("monitor length %d disagrees with queue length %d", got, l.Queue().Len())
	}
}

// TestNewDropTailClampsCapacity: a non-positive capacity clamps to one
// slot rather than producing a queue that rejects everything (a link with
// a zero-capacity queue could never transmit: packets are serviced from
// the queue).
func TestNewDropTailClampsCapacity(t *testing.T) {
	for _, cap := range []int{0, -5} {
		q := NewDropTail(cap)
		if q.Capacity() != 1 {
			t.Errorf("NewDropTail(%d).Capacity() = %d, want 1", cap, q.Capacity())
		}
		p := packet.New(packet.FlowID{Edge: "E", Local: 0}, "D", 0, 0)
		if !q.Enqueue(p) {
			t.Errorf("NewDropTail(%d) rejected the first packet", cap)
		}
		if q.Enqueue(packet.New(packet.FlowID{Edge: "E", Local: 0}, "D", 1, 0)) {
			t.Errorf("NewDropTail(%d) accepted a second packet", cap)
		}
	}
}

// TestAddLinkRejectsDegenerateConfigs: zero or negative rates (a link that
// can never transmit) and negative delays must be configuration errors, not
// silent time-travel at run time.
func TestAddLinkRejectsDegenerateConfigs(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	mustNode(t, n, "B")
	if _, err := n.AddLink("A", "B", LinkConfig{RateBps: 0, Delay: time.Millisecond}); err == nil {
		t.Error("AddLink accepted a zero-rate link")
	}
	if _, err := n.AddLink("A", "B", LinkConfig{RateBps: -4e6, Delay: time.Millisecond}); err == nil {
		t.Error("AddLink accepted a negative-rate link")
	}
	if _, err := n.AddLink("A", "B", LinkConfig{RateBps: 4e6, Delay: -time.Millisecond}); err == nil {
		t.Error("AddLink accepted a negative-delay link")
	}
	// The rejected configs must not have registered anything.
	if len(n.Links()) != 0 {
		t.Errorf("rejected links left %d entries registered", len(n.Links()))
	}
}

// TestMonitorAfterEndEpoch pins the epoch-reset semantics the Corelite
// core depends on: EndEpoch returns the finished epoch's average and the
// new epoch starts from the current instantaneous length — the integral
// and the peak must not leak across the boundary.
func TestMonitorAfterEndEpoch(t *testing.T) {
	m := NewQueueMonitor(0)
	m.Observe(0, 10)
	m.Observe(1*time.Second, 2) // epoch 1: 10 for 1s, then 2 for 1s
	if avg := m.EndEpoch(2 * time.Second); avg < 5.99 || avg > 6.01 {
		t.Fatalf("epoch 1 average = %v, want 6", avg)
	}
	// Fresh epoch: peak collapses to the carried-over length, the average
	// at zero elapsed time is the instantaneous length, and the old
	// integral is gone.
	if got := m.Peak(); got != 2 {
		t.Errorf("peak after EndEpoch = %d, want current length 2", got)
	}
	if got := m.Average(2 * time.Second); got != 2 {
		t.Errorf("average at epoch start = %v, want instantaneous length 2", got)
	}
	if got := m.Length(); got != 2 {
		t.Errorf("length after EndEpoch = %d, want 2", got)
	}
	// Epoch 2 integrates only from the boundary: 2 for 1s, then 4 for 1s.
	m.Observe(3*time.Second, 4)
	if avg := m.EndEpoch(4 * time.Second); avg < 2.99 || avg > 3.01 {
		t.Errorf("epoch 2 average = %v, want 3 (epoch 1 leaked in)", avg)
	}
	if got := m.Peak(); got != 4 {
		t.Errorf("peak after second EndEpoch = %d, want 4", got)
	}
}
