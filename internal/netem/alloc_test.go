package netem

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestLinkSteadyStateAllocs pins the link pipeline's allocation contract:
// once the packet pool, the scheduler free lists and the propTimer pool are
// warm, pushing a packet burst through a two-hop path allocates nothing — no
// per-packet events, no timer records, no queue growth.
func TestLinkSteadyStateAllocs(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	for _, name := range []string{"A", "B", "C"} {
		mustNode(t, n, name)
	}
	cfg := LinkConfig{RateBps: 8e6, Delay: time.Millisecond}
	mustLink(t, n, "A", "B", cfg)
	mustLink(t, n, "B", "C", cfg)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}

	flow := packet.FlowID{Edge: "A", Local: 1}
	var seq int64
	burst := func() {
		// Four simultaneous arrivals: one straight into service, three
		// queued, so several propagation timers are in flight at once.
		for i := 0; i < 4; i++ {
			n.Node("A").Inject(n.PacketPool().Get(flow, "C", seq, s.Now()))
			seq++
		}
		if err := s.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
	}
	// Warm the pools and the queue capacity.
	for i := 0; i < 8; i++ {
		burst()
	}
	allocs := testing.AllocsPerRun(500, burst)
	if allocs != 0 {
		t.Fatalf("steady-state link pipeline allocates %.2f objects per burst, want 0", allocs)
	}
	if got := n.Stats().Delivered; got != seq {
		t.Fatalf("delivered %d packets, want %d", got, seq)
	}
}
