package netem

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// lineTracer keeps every trace event as its formatted line (packets are
// pooled, so the event must be rendered before the packet is reused).
type lineTracer struct{ lines []string }

func (l *lineTracer) Trace(e TraceEvent) { l.lines = append(l.lines, e.Format()) }

// runPipelineScenario builds a seeded random chain of 3–6 hops with mixed
// rates, delays and short drop-tail queues, plus a cross source joining
// mid-chain, drives it with bursts large enough to overflow the queues, and
// returns the full packet trace, the profiler's per-kind event counts and
// the drop count.
func runPipelineScenario(t *testing.T, seed int64) ([]string, map[sim.HandlerKind]uint64, int64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	s := sim.NewScheduler()
	prof := sim.NewLoopProfiler(1)
	s.SetProfiler(prof)
	n := New(s)
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
		postAt(s, time.Duration(rng.Intn(400_000))*time.Microsecond, func() {
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

// pipelineDigests are the SHA-256 digests of each seed's full trace stream
// followed by its per-kind event counts, recorded on the commit that still
// had the fused transmit+propagate chain beside the two-event pipeline: both
// produced these bytes.
var pipelineDigests = [...]string{
	"f3a3ec4d68cb3ac5ab65f6af784d779a497d01dc9474cfcfc5dd77ef15b69f06",
	"d3bcd74da11c3e39587943072ec99aa6b26197fe6c33c2c59104a59fc715895e",
	"c1133cb365516767c1e3d63fa31a246e804db5eb563457835c556f7bb61ae245",
	"59367c17ecc436fe4c8cee7acedcd43377d6b748829468296e942132fe39fcec",
	"bc18bcd97b4def2c14d1e9d86f98a7a528a7dc9bd0490813ee8bc84681be6986",
	"3cf848c21e088e58c22e77082b91627a29f776db0932798dc71744d3f950df5e",
	"58c28a77a75229641d8071aa07afe470abf02d762642279dae3612daeb8c05a1",
	"58ef9f50e57c9babdcdd258e62efd50c6a2cc7b534d69259bfc37e67c54d390e",
}

// TestLinkPipelineTracePinned holds the link pipeline to the packet trace
// and per-kind event counts it emitted before it became the only pipeline:
// on seeded random multi-hop networks, queue overflow included, every trace
// event and every executed scheduler event is what the recorded digest saw.
func TestLinkPipelineTracePinned(t *testing.T) {
	for i, want := range pipelineDigests {
		seed := int64(i + 1)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			lines, counts, drops := runPipelineScenario(t, seed)
			if drops == 0 {
				t.Error("scenario never overflowed a queue; the drop path went untested")
			}
			h := sha256.New()
			for _, line := range lines {
				fmt.Fprintln(h, line)
			}
			kinds := make([]sim.HandlerKind, 0, len(counts))
			for k := range counts {
				kinds = append(kinds, k)
			}
			sort.Slice(kinds, func(a, b int) bool { return kinds[a] < kinds[b] })
			for _, k := range kinds {
				fmt.Fprintf(h, "%v=%d\n", k, counts[k])
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
				t.Errorf("trace and event counts of %d events hash to %s, want %s", len(lines), got, want)
			}
		})
	}
}
