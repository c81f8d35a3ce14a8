package netem

import (
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// CountingTracer tallies events by kind.
type CountingTracer struct {
	Counts map[EventKind]int
}

// NewCountingTracer returns an empty counter.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{Counts: make(map[EventKind]int)}
}

// Trace implements Tracer.
func (t *CountingTracer) Trace(e TraceEvent) { t.Counts[e.Kind]++ }

func TestTracerCountsLifecycle(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	mustNode(t, n, "B")
	mustLink(t, n, "A", "B", LinkConfig{RateBps: 4e6, Delay: time.Millisecond, Queue: NewDropTail(2)})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	tr := NewCountingTracer()
	n.SetTracer(tr)
	n.Node("B").SetApp(&sinkApp{now: s.Now})

	// 5 simultaneous packets into a 2-deep queue: 3 delivered, 2 dropped.
	for i := 0; i < 5; i++ {
		n.Node("A").Inject(packet.New(packet.FlowID{Edge: "A", Local: 0}, "B", int64(i), 0))
	}
	drain(s)
	if tr.Counts[EventEnqueue] != 3 {
		t.Errorf("enqueues = %d, want 3", tr.Counts[EventEnqueue])
	}
	if tr.Counts[EventDequeue] != 3 {
		t.Errorf("dequeues = %d, want 3", tr.Counts[EventDequeue])
	}
	if tr.Counts[EventReceive] != 3 {
		t.Errorf("receives = %d, want 3", tr.Counts[EventReceive])
	}
	if tr.Counts[EventDrop] != 2 {
		t.Errorf("drops = %d, want 2", tr.Counts[EventDrop])
	}
}

func TestWriterTracerFormat(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	mustNode(t, n, "B")
	mustLink(t, n, "A", "B", LinkConfig{RateBps: 4e6, Delay: time.Millisecond})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	n.SetTracer(&WriterTracer{W: &sb})
	n.Node("B").SetApp(&sinkApp{now: s.Now})

	p := packet.New(packet.FlowID{Edge: "E1", Local: 7}, "B", 42, 0)
	p.Marker = &packet.Marker{Flow: p.Flow, Rate: 10}
	n.Node("A").Inject(p)
	drain(s)
	out := sb.String()
	for _, want := range []string{"+ 0.000000 A->B E1/7 seq 42 size 1000 data marked",
		"- 0.000000 A->B", "r 0.003000 B"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestWriterTracerFilter(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	mustNode(t, n, "B")
	mustLink(t, n, "A", "B", LinkConfig{RateBps: 4e6, Delay: time.Millisecond, Queue: NewDropTail(1)})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	n.SetTracer(&WriterTracer{W: &sb, Filter: func(e TraceEvent) bool { return e.Kind == EventDrop }})
	n.Node("B").SetApp(&sinkApp{now: s.Now})
	for i := 0; i < 4; i++ {
		n.Node("A").Inject(packet.New(packet.FlowID{Edge: "A", Local: 0}, "B", int64(i), 0))
	}
	drain(s)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("filtered trace has %d lines, want 2 drops:\n%s", len(lines), sb.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "d ") || !strings.Contains(l, "overflow") {
			t.Errorf("unexpected trace line %q", l)
		}
	}
}

func TestNetworkPath(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	for _, name := range []string{"A", "B", "C"} {
		mustNode(t, n, name)
	}
	mustLink(t, n, "A", "B", LinkConfig{RateBps: 1e6, Delay: time.Millisecond})
	mustLink(t, n, "B", "C", LinkConfig{RateBps: 1e6, Delay: time.Millisecond})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	path, err := n.Path("A", "C")
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	if len(path) != 3 || path[0] != "A" || path[1] != "B" || path[2] != "C" {
		t.Errorf("Path = %v, want [A B C]", path)
	}
	self, err := n.Path("A", "A")
	if err != nil || len(self) != 1 {
		t.Errorf("Path(A,A) = %v, %v", self, err)
	}
	if _, err := n.Path("A", "Z"); err == nil {
		t.Error("Path to unknown node succeeded")
	}
	if _, err := n.Path("C", "A"); err == nil {
		t.Error("Path with no route succeeded (links are unidirectional)")
	}
}
