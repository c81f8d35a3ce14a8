package netem

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// lineTracer keeps every trace event as its formatted line (packets are
// pooled, so the event must be rendered before the packet is reused).
type lineTracer struct{ lines []string }

func (l *lineTracer) Trace(e TraceEvent) { l.lines = append(l.lines, e.Format()) }

// runFusionScenario builds a seeded random chain of 3–6 hops with mixed
// rates, delays and short drop-tail queues, plus a cross source joining
// mid-chain, drives it with bursts large enough to overflow the queues, and
// returns the full packet trace, the profiler's per-kind event counts and
// the drop count.
func runFusionScenario(t *testing.T, seed int64, fused bool) ([]string, map[sim.HandlerKind]uint64, int64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	s := sim.NewScheduler()
	prof := sim.NewLoopProfiler(1)
	s.SetProfiler(prof)
	n := New(s)
	n.SetLinkFusion(fused)
	tr := &lineTracer{}
	n.SetTracer(tr)

	hops := 3 + rng.Intn(4)
	randomLink := func() LinkConfig {
		return LinkConfig{
			RateBps: float64(int(1)<<rng.Intn(4)) * 1e6, // 1, 2, 4 or 8 Mb/s
			Delay:   time.Duration(200+rng.Intn(12000)) * time.Microsecond,
			Queue:   NewDropTail(3 + rng.Intn(10)),
		}
	}
	name := func(i int) string { return fmt.Sprintf("N%d", i) }
	for i := 0; i <= hops; i++ {
		mustNode(t, n, name(i))
	}
	for i := 0; i < hops; i++ {
		mustLink(t, n, name(i), name(i+1), randomLink())
	}
	join := name(1 + rng.Intn(hops-1))
	mustNode(t, n, "X")
	mustLink(t, n, "X", join, randomLink())
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}

	dst := name(hops)
	var seq int64
	for b := 0; b < 60; b++ {
		src := name(0)
		if rng.Intn(3) == 0 {
			src = "X"
		}
		size := 1 + rng.Intn(20)
		flow := packet.FlowID{Edge: src, Local: 1}
		s.MustAt(time.Duration(rng.Intn(400_000))*time.Microsecond, func() {
			for i := 0; i < size; i++ {
				n.Node(src).Inject(n.PacketPool().Get(flow, dst, seq, s.Now()))
				seq++
			}
		})
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	counts := map[sim.HandlerKind]uint64{}
	for _, st := range prof.Snapshot() {
		counts[st.Kind] = st.Events
	}
	return tr.lines, counts, n.Stats().Dropped
}

// TestFusedUnfusedDifferential pins the two link pipelines against each
// other where they differ — inside netem: on seeded random multi-hop
// networks the fused chain and the two-event reference must emit the
// identical packet trace, event for event, and the identical per-kind event
// counts, queue overflow included.
func TestFusedUnfusedDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fused, fusedCounts, drops := runFusionScenario(t, seed, true)
			unfused, unfusedCounts, _ := runFusionScenario(t, seed, false)
			if drops == 0 {
				t.Error("scenario never overflowed a queue; the drop path went untested")
			}
			if len(fused) != len(unfused) {
				t.Fatalf("fused pipeline traced %d events, unfused %d", len(fused), len(unfused))
			}
			for i := range fused {
				if fused[i] != unfused[i] {
					t.Fatalf("trace event %d: fused %q, unfused %q", i, fused[i], unfused[i])
				}
			}
			for k, c := range unfusedCounts {
				if fusedCounts[k] != c {
					t.Errorf("%v: fused pipeline ran %d events, unfused %d", k, fusedCounts[k], c)
				}
			}
			if len(fusedCounts) != len(unfusedCounts) {
				t.Errorf("fused pipeline saw kinds %v, unfused %v", fusedCounts, unfusedCounts)
			}
		})
	}
}
