package netem

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// controlFunc adapts a function to ControlReceiver.
type controlFunc func(Control)

func (f controlFunc) HandleControl(c Control) { f(c) }

// controlLine builds A -> B -> C with a pinned route, so C's messages back
// to A are timed along the reverse links (2 ms + 3 ms).
func controlLine(t *testing.T, s *sim.Scheduler) (n *Network, a, c *Node) {
	t.Helper()
	n = New(s)
	a, c = mustNode(t, n, "A"), mustNode(t, n, "C")
	mustNode(t, n, "B")
	for _, l := range []struct {
		from, to string
		d        time.Duration
	}{{"A", "B", 2 * time.Millisecond}, {"B", "C", 3 * time.Millisecond}} {
		mustLink(t, n, l.from, l.to, LinkConfig{RateBps: 1e6, Delay: l.d})
		mustLink(t, n, l.to, l.from, LinkConfig{RateBps: 1e6, Delay: l.d})
	}
	if err := n.InstallRoute([]string{"A", "B", "C"}); err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	return n, a, c
}

// TestControlSendAllocatesNothing pins the control plane's allocation
// contract: once the message arena has grown to the number of messages in
// flight, sending and delivering them allocates nothing.
func TestControlSendAllocatesNothing(t *testing.T) {
	s := sim.NewScheduler()
	n, a, c := controlLine(t, s)
	delivered := 0
	a.SetControl(controlFunc(func(Control) { delivered++ }))
	burst := func() {
		for i := 0; i < 8; i++ {
			if err := n.SendControl(c, a, Control{Flow: i, Link: 1}); err != nil {
				t.Fatalf("SendControl: %v", err)
			}
		}
		if err := s.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		burst()
	}
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Fatalf("steady-state control plane allocates %.2f objects per 8-message burst, want 0", allocs)
	}
	if want := 8 * (4 + 201); delivered != want {
		t.Fatalf("delivered %d messages, want %d", delivered, want)
	}
}

// TestControlProfiledMatchesPlain sends the same messages with and without
// the event-loop profiler attached: every delivery is one KindControl event,
// and the delivery times and order do not depend on the profiler.
func TestControlProfiledMatchesPlain(t *testing.T) {
	const msgs = 50
	run := func(prof *sim.LoopProfiler) []Control {
		s := sim.NewScheduler()
		s.SetProfiler(prof)
		n, a, c := controlLine(t, s)
		var got []Control
		a.SetControl(controlFunc(func(m Control) {
			m.Sent = s.Now() // record the delivery time in place of the send time
			got = append(got, m)
		}))
		var hid sim.HandlerID
		sent := 0
		hid = s.RegisterHandler(func(uint32) {
			if err := n.SendControl(c, a, Control{Flow: sent}); err != nil {
				t.Fatalf("SendControl: %v", err)
			}
			if sent++; sent < msgs {
				s.PostHandler(time.Duration(sent%3)*time.Millisecond, hid, 0)
			}
		})
		s.PostHandler(0, hid, 0)
		if err := s.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		return got
	}
	plain := run(nil)
	prof := sim.NewLoopProfiler(1)
	profiled := run(prof)
	if len(plain) != msgs || !slices.Equal(plain, profiled) {
		t.Fatalf("profiled deliveries differ from plain ones:\nplain    %v\nprofiled %v", plain, profiled)
	}
	if plain[0].Sent != 5*time.Millisecond {
		t.Errorf("first delivery at %v, want 5ms (reverse path 3ms + 2ms)", plain[0].Sent)
	}
	counts := map[sim.HandlerKind]uint64{}
	for _, st := range prof.Snapshot() {
		counts[st.Kind] = st.Events
	}
	if counts[sim.KindControl] != msgs {
		t.Errorf("profiler counted %d control events, want %d", counts[sim.KindControl], msgs)
	}
}

// TestControlToNodeWithoutReceiver discards the message at delivery.
func TestControlToNodeWithoutReceiver(t *testing.T) {
	s := sim.NewScheduler()
	n, a, c := controlLine(t, s)
	if err := n.SendControl(c, a, Control{}); err != nil {
		t.Fatalf("SendControl: %v", err)
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if s.Processed() != 1 {
		t.Errorf("processed %d events, want the one delivery", s.Processed())
	}
}
