package netem

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// BenchmarkForwardPath measures the per-packet cost of the full pipeline:
// inject -> route -> enqueue -> service -> propagate -> deliver across two
// hops.
func BenchmarkForwardPath(b *testing.B) {
	s := sim.NewScheduler()
	n := New(s)
	for _, name := range []string{"A", "R", "B"} {
		if _, err := n.AddNode(name); err != nil {
			b.Fatal(err)
		}
	}
	// Very fast links so service time never throttles the benchmark.
	if _, err := n.AddLink("A", "R", LinkConfig{RateBps: 1e12, Delay: time.Microsecond, Queue: NewDropTail(1 << 20)}); err != nil {
		b.Fatal(err)
	}
	if _, err := n.AddLink("R", "B", LinkConfig{RateBps: 1e12, Delay: time.Microsecond, Queue: NewDropTail(1 << 20)}); err != nil {
		b.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		b.Fatal(err)
	}
	delivered := 0
	n.Node("B").SetApp(appFn(func(*packet.Packet) { delivered++ }))
	flow := packet.FlowID{Edge: "A", Local: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Node("A").Inject(packet.New(flow, "B", int64(i), s.Now()))
		// Drain periodically so the queue stays small.
		if i%1024 == 1023 {
			drain(s)
		}
	}
	drain(s)
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkDropTail measures raw queue ops.
func BenchmarkDropTail(b *testing.B) {
	q := NewDropTail(64)
	p := packet.New(packet.FlowID{}, "D", 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p)
		q.Dequeue()
	}
}
