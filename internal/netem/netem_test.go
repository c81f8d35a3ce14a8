package netem

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/baseline"
	"repro/internal/packet"
	"repro/internal/sim"
)

func mustNode(t *testing.T, n *Network, name string) *Node {
	t.Helper()
	node, err := n.AddNode(name)
	if err != nil {
		t.Fatalf("AddNode(%s): %v", name, err)
	}
	return node
}

func mustLink(t *testing.T, n *Network, from, to string, cfg LinkConfig) *Link {
	t.Helper()
	l, err := n.AddLink(from, to, cfg)
	if err != nil {
		t.Fatalf("AddLink(%s->%s): %v", from, to, err)
	}
	return l
}

// sinkApp records received packets.
type sinkApp struct {
	got []*packet.Packet
	at  []time.Duration
	now func() time.Duration
}

func (s *sinkApp) Receive(p *packet.Packet) {
	s.got = append(s.got, p)
	s.at = append(s.at, s.now())
}

func TestDropTailFIFOAndOverflow(t *testing.T) {
	q := NewDropTail(3)
	pkts := make([]*packet.Packet, 5)
	accepted := 0
	for i := range pkts {
		pkts[i] = packet.New(packet.FlowID{Edge: "E", Local: 0}, "D", int64(i), 0)
		if q.Enqueue(pkts[i]) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Fatalf("accepted %d packets into capacity-3 queue, want 3", accepted)
	}
	if q.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", q.Len())
	}
	for i := 0; i < 3; i++ {
		p := q.Dequeue()
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("Dequeue %d returned %v, want seq %d", i, p, i)
		}
	}
	if q.Dequeue() != nil {
		t.Error("Dequeue of empty queue returned a packet")
	}
}

func TestDropTailCapacityFloor(t *testing.T) {
	q := NewDropTail(0)
	if q.Capacity() != 1 {
		t.Errorf("Capacity() = %d, want floor of 1", q.Capacity())
	}
}

// TestDropTailInvariant checks with random enqueue/dequeue interleavings
// that length never exceeds capacity and FIFO order holds.
func TestDropTailInvariant(t *testing.T) {
	f := func(ops []bool, capRaw uint8) bool {
		capacity := int(capRaw%10) + 1
		q := NewDropTail(capacity)
		next := int64(0)
		var inQueue []int64
		for _, enq := range ops {
			if enq {
				p := packet.New(packet.FlowID{}, "D", next, 0)
				if q.Enqueue(p) {
					inQueue = append(inQueue, next)
				}
				next++
			} else {
				p := q.Dequeue()
				if len(inQueue) == 0 {
					if p != nil {
						return false
					}
					continue
				}
				if p == nil || p.Seq != inQueue[0] {
					return false
				}
				inQueue = inQueue[1:]
			}
			if q.Len() != len(inQueue) || q.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQueueMonitorAverage(t *testing.T) {
	m := NewQueueMonitor(0)
	// Length 0 for 1s, then 10 for 1s: average over 2s = 5.
	m.Observe(1*time.Second, 10)
	m.Observe(2*time.Second, 0)
	avg := m.EndEpoch(2 * time.Second)
	if avg < 4.99 || avg > 5.01 {
		t.Errorf("epoch average = %v, want 5", avg)
	}
	// New epoch: constant length 4 for 1s.
	m.Observe(2500*time.Millisecond, 4)
	m.Observe(3*time.Second, 4)
	avg = m.EndEpoch(3 * time.Second)
	if avg < 1.99 || avg > 2.01 { // 0 for 0.5s then 4 for 0.5s
		t.Errorf("second epoch average = %v, want 2", avg)
	}
}

func TestQueueMonitorAverageWithoutReset(t *testing.T) {
	m := NewQueueMonitor(0)
	m.Observe(0, 6)
	if got := m.Average(2 * time.Second); got < 5.99 || got > 6.01 {
		t.Errorf("Average = %v, want 6", got)
	}
	if got := m.EndEpoch(2 * time.Second); got < 5.99 || got > 6.01 {
		t.Errorf("EndEpoch = %v, want 6", got)
	}
}

func TestLinkServiceRateAndDelay(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	mustNode(t, n, "B")
	// 4 Mbps, 10ms: a 1000B packet takes 2ms service + 10ms propagation.
	mustLink(t, n, "A", "B", LinkConfig{RateBps: 4e6, Delay: 10 * time.Millisecond})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	sink := &sinkApp{now: s.Now}
	n.Node("B").SetApp(sink)

	for i := 0; i < 3; i++ {
		n.Node("A").Inject(packet.New(packet.FlowID{Edge: "A", Local: 1}, "B", int64(i), s.Now()))
	}
	drain(s)
	if len(sink.got) != 3 {
		t.Fatalf("sink received %d packets, want 3", len(sink.got))
	}
	// Back-to-back packets are spaced by the 2ms service time; the first
	// arrives after service+propagation = 12ms.
	want := []time.Duration{12 * time.Millisecond, 14 * time.Millisecond, 16 * time.Millisecond}
	for i, at := range sink.at {
		if at != want[i] {
			t.Errorf("packet %d arrived at %v, want %v", i, at, want[i])
		}
	}
}

func TestLinkPacketsPerSecond(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	mustNode(t, n, "B")
	l := mustLink(t, n, "A", "B", LinkConfig{RateBps: 4e6, Delay: time.Millisecond})
	if got := l.PacketsPerSecond(1000); got != 500 {
		t.Errorf("PacketsPerSecond(1000) = %v, want 500 (paper's 4Mbps/1KB)", got)
	}
	if got := l.PacketsPerSecond(0); got != 0 {
		t.Errorf("PacketsPerSecond(0) = %v, want 0", got)
	}
}

func TestOverflowDropNotifies(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	mustNode(t, n, "B")
	mustLink(t, n, "A", "B", LinkConfig{
		RateBps: 8e6, Delay: time.Millisecond, Queue: NewDropTail(2),
	})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	var drops []Drop
	n.OnDrop(func(d Drop) { drops = append(drops, d) })
	sink := &sinkApp{now: s.Now}
	n.Node("B").SetApp(sink)

	// Burst of 5 simultaneous packets: 1 goes straight into service, 2
	// queue, 2 drop.
	for i := 0; i < 5; i++ {
		n.Node("A").Inject(packet.New(packet.FlowID{Edge: "A", Local: 1}, "B", int64(i), 0))
	}
	drain(s)
	if len(sink.got) != 3 {
		t.Errorf("sink received %d packets, want 3", len(sink.got))
	}
	if len(drops) != 2 {
		t.Fatalf("observed %d drops, want 2", len(drops))
	}
	for _, d := range drops {
		if d.Reason != DropOverflow {
			t.Errorf("drop reason = %v, want overflow", d.Reason)
		}
		if d.Node != n.Node("A") {
			t.Errorf("drop node = %s, want A", d.Node.Name())
		}
	}
}

func TestNoRouteDrop(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	var drops []Drop
	n.OnDrop(func(d Drop) { drops = append(drops, d) })
	n.Node("A").Inject(packet.New(packet.FlowID{Edge: "A", Local: 1}, "nowhere", 0, 0))
	if len(drops) != 1 || drops[0].Reason != DropNoRoute {
		t.Fatalf("drops = %+v, want one no-route drop", drops)
	}
}

type dropAllForwarder struct{ seen int }

func (f *dropAllForwarder) OnForward(p *packet.Packet, out *Link) bool {
	f.seen++
	return false
}

func TestForwarderPolicyDrop(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	mustNode(t, n, "R")
	mustNode(t, n, "B")
	mustLink(t, n, "A", "R", LinkConfig{RateBps: 4e6, Delay: time.Millisecond})
	mustLink(t, n, "R", "B", LinkConfig{RateBps: 4e6, Delay: time.Millisecond})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	fw := &dropAllForwarder{}
	n.Node("R").SetForwarder(fw)
	var drops []Drop
	n.OnDrop(func(d Drop) { drops = append(drops, d) })
	sink := &sinkApp{now: s.Now}
	n.Node("B").SetApp(sink)

	n.Node("A").Inject(packet.New(packet.FlowID{Edge: "A", Local: 1}, "B", 0, 0))
	drain(s)
	if fw.seen != 1 {
		t.Errorf("forwarder saw %d packets, want 1", fw.seen)
	}
	if len(sink.got) != 0 {
		t.Errorf("sink received %d packets, want 0", len(sink.got))
	}
	if len(drops) != 1 || drops[0].Reason != DropPolicy {
		t.Fatalf("drops = %+v, want one policy drop at R", drops)
	}
}

func TestRoutingShortestDelay(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	for _, name := range []string{"A", "B", "C", "D"} {
		mustNode(t, n, name)
	}
	// A->B->D is 2ms+2ms; A->C->D is 1ms+10ms. Shortest is via B.
	mustLink(t, n, "A", "B", LinkConfig{RateBps: 1e6, Delay: 2 * time.Millisecond})
	mustLink(t, n, "B", "D", LinkConfig{RateBps: 1e6, Delay: 2 * time.Millisecond})
	mustLink(t, n, "A", "C", LinkConfig{RateBps: 1e6, Delay: 1 * time.Millisecond})
	mustLink(t, n, "C", "D", LinkConfig{RateBps: 1e6, Delay: 10 * time.Millisecond})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	path, err := n.Path("A", "D")
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	if len(path) != 3 || path[1] != "B" {
		t.Errorf("A's path to D = %v, want via B", path)
	}
	d, err := n.PathDelay("A", "D")
	if err != nil {
		t.Fatalf("PathDelay: %v", err)
	}
	if d != 4*time.Millisecond {
		t.Errorf("PathDelay(A,D) = %v, want 4ms", d)
	}
}

func TestSendControlLatency(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	a := mustNode(t, n, "A")
	mustNode(t, n, "B")
	c := mustNode(t, n, "C")
	mustLink(t, n, "A", "B", LinkConfig{RateBps: 1e6, Delay: 3 * time.Millisecond})
	mustLink(t, n, "B", "C", LinkConfig{RateBps: 1e6, Delay: 4 * time.Millisecond})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	var got []Control
	var deliveredAt []time.Duration
	c.SetControl(controlFunc(func(m Control) {
		got, deliveredAt = append(got, m), append(deliveredAt, s.Now())
		if len(got) == 1 {
			// Send a second message from the first one's delivery.
			if err := n.SendControl(a, c, Control{Flow: 4}); err != nil {
				t.Errorf("SendControl: %v", err)
			}
		}
	}))
	if err := n.SendControl(a, c, Control{Flow: 3, Link: 1}); err != nil {
		t.Fatalf("SendControl: %v", err)
	}
	drain(s)
	if want := []time.Duration{7 * time.Millisecond, 14 * time.Millisecond}; !slices.Equal(deliveredAt, want) {
		t.Errorf("control delivered at %v, want %v", deliveredAt, want)
	}
	want := []Control{{Flow: 3, Link: 1}, {Flow: 4, Sent: 7 * time.Millisecond}}
	if !slices.Equal(got, want) {
		t.Errorf("delivered %+v, want %+v (Sent stamped at the send)", got, want)
	}
	if err := n.SendControl(a, n.Node("missing"), Control{}); err == nil {
		t.Error("SendControl to unknown node succeeded, want error")
	}
	if err := n.SendControl(c, a, Control{}); err == nil {
		t.Error("SendControl with no path back succeeded, want error")
	}
	other := mustNode(t, New(s), "C")
	if err := n.SendControl(a, other, Control{}); err == nil {
		t.Error("SendControl to another network's node succeeded, want error")
	}
	if s.Len() != 0 {
		t.Errorf("failed sends left %d events queued, want 0", s.Len())
	}
}

func TestDuplicateNodeAndLinkRejected(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	if _, err := n.AddNode("A"); err == nil {
		t.Error("duplicate AddNode succeeded")
	}
	mustNode(t, n, "B")
	mustLink(t, n, "A", "B", LinkConfig{RateBps: 1e6, Delay: time.Millisecond})
	if _, err := n.AddLink("A", "B", LinkConfig{RateBps: 1e6, Delay: time.Millisecond}); err == nil {
		t.Error("duplicate AddLink succeeded")
	}
	if _, err := n.AddLink("A", "Z", LinkConfig{RateBps: 1e6}); err == nil {
		t.Error("AddLink to unknown node succeeded")
	}
	if _, err := n.AddLink("A", "B", LinkConfig{}); err == nil {
		t.Error("AddLink with zero rate succeeded")
	}
}

func TestConnectDuplex(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	mustNode(t, n, "B")
	ab, ba, err := n.Connect("A", "B", LinkConfig{RateBps: 2e6, Delay: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if ab.From().Name() != "A" || ab.To().Name() != "B" {
		t.Errorf("forward link endpoints %s->%s", ab.From().Name(), ab.To().Name())
	}
	if ba.From().Name() != "B" || ba.To().Name() != "A" {
		t.Errorf("reverse link endpoints %s->%s", ba.From().Name(), ba.To().Name())
	}
}

func TestREDDropsProbabilisticallyUnderLoad(t *testing.T) {
	s := sim.NewScheduler()
	rng := sim.NewRNG(1)
	red := baseline.NewRED(baseline.DefaultREDConfig(40, 2*time.Millisecond), s.Now, rng)

	// Keep the queue hovering around 20 packets so avg exceeds minThresh
	// (5): enqueue 2, dequeue 1, repeatedly.
	var drops int
	seq := int64(0)
	for i := 0; i < 2000; i++ {
		for j := 0; j < 2; j++ {
			p := packet.New(packet.FlowID{}, "D", seq, 0)
			seq++
			if !red.Enqueue(p) {
				drops++
			}
		}
		if red.Len() > 20 {
			red.Dequeue()
			red.Dequeue()
		} else {
			red.Dequeue()
		}
	}
	if drops == 0 {
		t.Error("RED never dropped under sustained load")
	}
	if red.EarlyDrops == 0 {
		t.Error("RED produced no early (probabilistic) drops")
	}
	if red.Avg() <= 5 {
		t.Errorf("RED average %v did not exceed minThresh under load", red.Avg())
	}
}

func TestREDIdleDecay(t *testing.T) {
	now := time.Duration(0)
	rng := sim.NewRNG(1)
	red := baseline.NewRED(baseline.DefaultREDConfig(40, 2*time.Millisecond), func() time.Duration { return now }, rng)
	for i := 0; i < 30; i++ {
		red.Enqueue(packet.New(packet.FlowID{}, "D", int64(i), 0))
	}
	for red.Len() > 0 {
		red.Dequeue()
	}
	avgBusy := red.Avg()
	// A long idle period should decay the average toward zero.
	now = 10 * time.Second
	red.Enqueue(packet.New(packet.FlowID{}, "D", 99, 0))
	if red.Avg() >= avgBusy {
		t.Errorf("RED average did not decay over idle: before %v after %v", avgBusy, red.Avg())
	}
}

func TestLinkStats(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "A")
	mustNode(t, n, "B")
	l := mustLink(t, n, "A", "B", LinkConfig{RateBps: 4e6, Delay: time.Millisecond, Queue: NewDropTail(1)})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	n.Node("B").SetApp(&sinkApp{now: s.Now})
	for i := 0; i < 4; i++ {
		n.Node("A").Inject(packet.New(packet.FlowID{Edge: "A", Local: 1}, "B", int64(i), 0))
	}
	drain(s)
	st := l.Stats()
	if st.Enqueued != 2 { // one in service immediately + one buffered
		t.Errorf("Enqueued = %d, want 2", st.Enqueued)
	}
	if st.Transmitted != 2 {
		t.Errorf("Transmitted = %d, want 2", st.Transmitted)
	}
	if st.DroppedOverflow != 2 {
		t.Errorf("DroppedOverflow = %d, want 2", st.DroppedOverflow)
	}
	if st.ArrivedBytes != 2*int64(packet.DefaultSizeBytes) {
		t.Errorf("ArrivedBytes = %d, want %d", st.ArrivedBytes, 2*packet.DefaultSizeBytes)
	}
}
