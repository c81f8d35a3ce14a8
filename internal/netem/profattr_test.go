package netem

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestFusedProfilerAttribution pins the event-loop profiler's per-kind
// accounting of the link pipeline: every executed event marks its true kind
// — one KindLinkTx and one KindLinkProp per transmitted packet per hop,
// never KindOther. (The name dates from when a fused transmit+propagate
// chain had to report the same counts.)
func TestFusedProfilerAttribution(t *testing.T) {
	s := sim.NewScheduler()
	prof := sim.NewLoopProfiler(1)
	s.SetProfiler(prof)
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
	for burst := 0; burst < 5; burst++ {
		for i := 0; i < 4; i++ {
			n.Node("A").Inject(n.PacketPool().Get(flow, "C", seq, s.Now()))
			seq++
		}
		if err := s.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
	}
	if got := n.Stats().Delivered; got != seq {
		t.Fatalf("delivered %d packets, want %d", got, seq)
	}
	counts := map[sim.HandlerKind]uint64{}
	for _, st := range prof.Snapshot() {
		counts[st.Kind] = st.Events
	}
	// Two hops per packet, one tx and one propagation event per hop; nothing
	// may hide under KindOther.
	wantPerKind := uint64(2 * 20)
	if counts[sim.KindLinkTx] != wantPerKind || counts[sim.KindLinkProp] != wantPerKind {
		t.Errorf("counts tx=%d prop=%d, want %d each", counts[sim.KindLinkTx], counts[sim.KindLinkProp], wantPerKind)
	}
	if counts[sim.KindOther] != 0 {
		t.Errorf("link pipeline attributed %d events to KindOther, want 0", counts[sim.KindOther])
	}
}
