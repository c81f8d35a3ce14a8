package netem

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

func wfqFlowID(name string) packet.FlowID { return packet.FlowID{Edge: name, Local: 0} }

func TestWFQServesByWeight(t *testing.T) {
	// Two permanently backlogged flows, weights 1 and 3: service counts
	// over a long horizon must approach 1:3.
	weights := map[packet.FlowID]float64{
		wfqFlowID("a"): 1,
		wfqFlowID("b"): 3,
	}
	q := NewWFQ(1<<20, func(f packet.FlowID) float64 { return weights[f] })
	// Keep both flows backlogged with 10 packets each, topping up after
	// every dequeue.
	served := map[string]int{}
	top := func(edge string) {
		f := wfqFlowID(edge)
		for i := 0; i < 10; i++ {
			q.Enqueue(packet.New(f, "D", int64(i), 0))
		}
	}
	top("a")
	top("b")
	for i := 0; i < 4000; i++ {
		p := q.Dequeue()
		if p == nil {
			t.Fatal("queue ran dry")
		}
		served[p.Flow.Edge]++
		q.Enqueue(packet.New(p.Flow, "D", int64(i), 0))
	}
	ratio := float64(served["b"]) / float64(served["a"])
	if ratio < 2.8 || ratio > 3.2 {
		t.Errorf("service ratio b:a = %.2f, want ~3", ratio)
	}
}

func TestWFQFIFOWithinFlow(t *testing.T) {
	q := NewWFQ(64, nil)
	f := wfqFlowID("x")
	for i := 0; i < 5; i++ {
		q.Enqueue(packet.New(f, "D", int64(i), 0))
	}
	for i := 0; i < 5; i++ {
		p := q.Dequeue()
		if p.Seq != int64(i) {
			t.Fatalf("dequeue %d returned seq %d", i, p.Seq)
		}
	}
	if q.Dequeue() != nil {
		t.Error("empty WFQ returned a packet")
	}
}

func TestWFQCapacityAndState(t *testing.T) {
	q := NewWFQ(4, nil)
	// Length never exceeds capacity regardless of offered load; overflow
	// evicts from the longest flow, so a single-flow hog is rejected at
	// the tail while a newcomer gets in by evicting the hog.
	hog := wfqFlowID("hog")
	for i := 0; i < 10; i++ {
		q.Enqueue(packet.New(hog, "D", int64(i), 0))
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", q.Len())
	}
	// The hog cannot evict itself.
	if q.Enqueue(packet.New(hog, "D", 99, 0)) {
		t.Error("hog evicted itself to admit its own packet")
	}
	// A newcomer evicts the hog's tail.
	if !q.Enqueue(packet.New(wfqFlowID("new"), "D", 0, 0)) {
		t.Error("newcomer rejected despite drop-from-longest-queue")
	}
	if q.Len() != 4 {
		t.Errorf("Len after eviction = %d, want 4", q.Len())
	}
	if q.ActiveFlows() != 2 {
		t.Errorf("ActiveFlows = %d, want 2", q.ActiveFlows())
	}
	for q.Len() > 0 {
		q.Dequeue()
	}
	if q.ActiveFlows() != 0 {
		t.Errorf("ActiveFlows after drain = %d, want 0", q.ActiveFlows())
	}
}

func TestWFQIdleFlowNotPenalized(t *testing.T) {
	// A flow that goes idle and returns must not be starved by stale
	// virtual time (its new head is stamped against the current clock).
	q := NewWFQ(1<<20, nil)
	a, b := wfqFlowID("a"), wfqFlowID("b")
	// b runs alone for a while, advancing the virtual clock.
	for i := 0; i < 100; i++ {
		q.Enqueue(packet.New(b, "D", int64(i), 0))
		q.Dequeue()
	}
	// a arrives fresh alongside b; service should now alternate.
	q.Enqueue(packet.New(a, "D", 0, 0))
	q.Enqueue(packet.New(b, "D", 100, 0))
	first := q.Dequeue()
	second := q.Dequeue()
	got := map[string]bool{first.Flow.Edge: true, second.Flow.Edge: true}
	if !got["a"] || !got["b"] {
		t.Errorf("returning flow starved: served %s then %s", first.Flow.Edge, second.Flow.Edge)
	}
}

// TestWFQMatchesOracleOnLink runs real traffic through a WFQ bottleneck:
// two unresponsive flows at equal offered load but weights 1:4 must
// receive goodput in ratio ~1:4 — the stateful ideal Corelite
// approximates without core state.
func TestWFQMatchesOracleOnLink(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "R")
	mustNode(t, n, "D")
	weights := map[packet.FlowID]float64{
		wfqFlowID("lo"): 1,
		wfqFlowID("hi"): 4,
	}
	q := NewWFQ(40, func(f packet.FlowID) float64 { return weights[f] })
	mustLink(t, n, "R", "D", LinkConfig{RateBps: 4e6, Delay: time.Millisecond, Queue: q})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	received := map[string]int{}
	n.Node("D").SetApp(appFn(func(p *packet.Packet) { received[p.Flow.Edge]++ }))

	emit := func(edge string, rate float64) {
		var seq int64
		gap := time.Duration(float64(time.Second) / rate)
		var fire func()
		fire = func() {
			n.Node("R").Inject(packet.New(wfqFlowID(edge), "D", seq, s.Now()))
			seq++
			if s.Now() < 20*time.Second {
				s.RescheduleAfter(gap)
			}
		}
		postAt(s, 0, fire)
	}
	// Both offer 400 pkt/s into a 500 pkt/s link: oracle shares 100/400.
	emit("lo", 400)
	emit("hi", 400)
	if err := s.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	loRate := float64(received["lo"]) / 20
	hiRate := float64(received["hi"]) / 20
	if loRate < 80 || loRate > 130 {
		t.Errorf("weight-1 goodput = %.0f, want ~100", loRate)
	}
	if hiRate < 360 || hiRate > 410 {
		t.Errorf("weight-4 goodput = %.0f, want ~400 (its full offered load)", hiRate)
	}
}

// postAt runs fn at time t on s, through a handler registered for it.
func postAt(s *sim.Scheduler, t time.Duration, fn func()) {
	s.PostHandlerAt(t, s.RegisterHandler(func(uint32) { fn() }), 0)
}
