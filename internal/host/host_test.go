package host

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// loopback wires a sender to a receiver with a fixed one-way delay and an
// optional drop predicate, without a network.
type loopback struct {
	sched *sim.Scheduler
	s     *Sender
	r     *Receiver
	delay time.Duration
	drop  func(seq int64, kind packet.Kind) bool
}

func newLoopback(t *testing.T, sched *sim.Scheduler, delay time.Duration, cfg TCPConfig) *loopback {
	t.Helper()
	lb := &loopback{sched: sched, delay: delay}
	s, err := NewSender(sched, SenderConfig{
		Flow: packet.FlowID{Edge: "S", Local: 0},
		Dst:  "R",
		TCP:  cfg,
		Transmit: func(p *packet.Packet) bool {
			if lb.drop != nil && lb.drop(p.Seq, p.Kind) {
				return false
			}
			sched.MustAfter(lb.delay, func() { lb.r.Deliver(p) })
			return true
		},
	})
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	lb.s = s
	lb.r = NewReceiver(sched, "S", func(ack *packet.Packet) {
		if lb.drop != nil && lb.drop(ack.Seq, ack.Kind) {
			return
		}
		sched.MustAfter(lb.delay, func() { lb.s.OnAck(ack.Seq) })
	})
	return lb
}

func TestSenderValidation(t *testing.T) {
	s := sim.NewScheduler()
	if _, err := NewSender(s, SenderConfig{Dst: "R"}); err == nil {
		t.Error("sender without Transmit accepted")
	}
	if _, err := NewSender(s, SenderConfig{Transmit: func(*packet.Packet) bool { return true }}); err == nil {
		t.Error("sender without Dst accepted")
	}
}

func TestLosslessTransfer(t *testing.T) {
	s := sim.NewScheduler()
	lb := newLoopback(t, s, 10*time.Millisecond, TCPConfig{})
	lb.s.Start()
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	lb.s.Stop()
	st := lb.s.Stats()
	if st.Retransmits != 0 || st.Timeouts != 0 {
		t.Errorf("lossless path produced %d retransmits, %d timeouts", st.Retransmits, st.Timeouts)
	}
	// RTT 20ms, max window 128 -> up to 6400 seg/s; in 5s several
	// thousand segments must complete.
	if lb.s.Acked() < 5000 {
		t.Errorf("acked %d segments in 5s, want several thousand", lb.s.Acked())
	}
	if lb.r.Expected() != lb.s.Acked() {
		t.Errorf("receiver expected %d != sender acked %d", lb.r.Expected(), lb.s.Acked())
	}
}

func TestSlowStartDoubling(t *testing.T) {
	s := sim.NewScheduler()
	lb := newLoopback(t, s, 50*time.Millisecond, TCPConfig{InitialCwnd: 1, SSThresh: 1000, MaxCwnd: 1000})
	lb.s.Start()
	// After ~3 RTTs of slow start the window should have grown
	// substantially (1 -> 2 -> 4 -> 8).
	if err := s.Run(320 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lb.s.Cwnd() < 6 {
		t.Errorf("cwnd after ~3 RTTs of slow start = %v, want >= 6", lb.s.Cwnd())
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	s := sim.NewScheduler()
	lb := newLoopback(t, s, 10*time.Millisecond, TCPConfig{})
	dropped := false
	lb.drop = func(seq int64, kind packet.Kind) bool {
		if kind == packet.KindData && seq == 50 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	lb.s.Start()
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := lb.s.Stats()
	if !dropped {
		t.Fatal("the test never exercised the loss")
	}
	if st.FastRetransmits != 1 {
		t.Errorf("fast retransmits = %d, want 1", st.FastRetransmits)
	}
	if st.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0 (dup ACKs should recover)", st.Timeouts)
	}
	if lb.s.Acked() < 1000 {
		t.Errorf("acked %d, transfer stalled after loss", lb.s.Acked())
	}
}

func TestTimeoutRecovery(t *testing.T) {
	// Drop everything for a while: the sender must back off with RTO and
	// recover when the path heals.
	s := sim.NewScheduler()
	lb := newLoopback(t, s, 10*time.Millisecond, TCPConfig{})
	blackout := true
	lb.drop = func(seq int64, kind packet.Kind) bool { return blackout }
	lb.s.Start()
	s.MustAt(2*time.Second, func() { blackout = false })
	if err := s.Run(6 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := lb.s.Stats()
	if st.Timeouts == 0 {
		t.Error("no RTO during blackout")
	}
	if lb.s.Acked() < 500 {
		t.Errorf("acked %d after path healed, want a resumed transfer", lb.s.Acked())
	}
}

func TestReceiverReordersOutOfOrder(t *testing.T) {
	s := sim.NewScheduler()
	var acks []int64
	r := NewReceiver(s, "S", func(p *packet.Packet) { acks = append(acks, p.Seq) })
	deliver := func(seq int64) {
		p := packet.New(packet.FlowID{Edge: "S", Local: 0}, "R", seq, 0)
		r.Deliver(p)
	}
	deliver(0)
	deliver(2) // gap
	deliver(3)
	deliver(1) // fills the gap
	want := []int64{1, 1, 1, 4}
	if len(acks) != len(want) {
		t.Fatalf("got %d acks, want %d", len(acks), len(want))
	}
	for i, a := range acks {
		if a != want[i] {
			t.Errorf("ack %d = %d, want %d", i, a, want[i])
		}
	}
	// ACK-kind packets must be ignored by the receiver.
	ack := packet.New(packet.FlowID{}, "R", 9, 0)
	ack.Kind = packet.KindAck
	r.Deliver(ack)
	if r.Received() != 4 {
		t.Errorf("receiver counted an ACK as data")
	}
}

// appFn adapts a closure to netem.App.
type appFn func(*packet.Packet)

func (f appFn) Receive(p *packet.Packet) { f(p) }

// TestTCPOverBottleneck runs one sender through a real simulated 500 pkt/s
// bottleneck (no QoS scheme) and requires reasonable utilization.
func TestTCPOverBottleneck(t *testing.T) {
	s := sim.NewScheduler()
	cloud, err := topology.Dumbbell(s, 1, nil, topology.Options{
		LinkDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dumbbell: %v", err)
	}
	net := cloud.Net
	pl := cloud.Placements[0]

	var recv *Receiver
	sender, err := NewSender(s, SenderConfig{
		Flow: packet.FlowID{Edge: pl.Ingress, Local: 0},
		Dst:  pl.Egress,
		Transmit: func(p *packet.Packet) bool {
			net.Node(pl.Ingress).Inject(p)
			return true
		},
	})
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	recv = NewReceiver(s, pl.Ingress, func(ack *packet.Packet) {
		net.Node(pl.Egress).Inject(ack)
	})
	net.Node(pl.Egress).SetApp(appFn(recv.Deliver))
	net.Node(pl.Ingress).SetApp(appFn(func(p *packet.Packet) {
		if p.Kind == packet.KindAck {
			sender.OnAck(p.Seq)
		}
	}))

	sender.Start()
	if err := s.Run(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	goodput := float64(sender.Acked()) / 30
	if goodput < 350 {
		t.Errorf("TCP goodput = %.0f pkt/s over a 500 pkt/s bottleneck, want > 350", goodput)
	}
	if goodput > 510 {
		t.Errorf("TCP goodput = %.0f pkt/s exceeds link capacity", goodput)
	}
}

// TestTCPThroughCoreliteWeightedShapers is the paper's "ongoing work"
// scenario: two TCP senders whose segments are policed by Corelite edge
// shapers with weights 1 and 2. The shapers enforce the weighted shares on
// the TCP aggregates; TCP adapts to the shaper via its own loss recovery.
func TestTCPThroughCoreliteWeightedShapers(t *testing.T) {
	s := sim.NewScheduler()
	weights := map[int]float64{1: 1, 2: 2}
	cloud, err := topology.Dumbbell(s, 2, weights, topology.Options{})
	if err != nil {
		t.Fatalf("Dumbbell: %v", err)
	}
	net := cloud.Net

	edges := make(map[string]*core.Edge)
	senders := make(map[int]*Sender)
	for _, pl := range cloud.Placements {
		pl := pl
		e := core.NewEdge(net, net.Node(pl.Ingress), core.DefaultEdgeConfig())
		local, err := e.AddShapedFlow(pl.Weight, 0, 64)
		if err != nil {
			t.Fatalf("AddShapedFlow: %v", err)
		}
		edges[pl.Ingress] = e
		sender, err := NewSender(s, SenderConfig{
			Flow: packet.FlowID{Edge: pl.Ingress, Local: local},
			Dst:  pl.Egress,
			Transmit: func(p *packet.Packet) bool {
				ok, err := e.Offer(local, p)
				if err != nil {
					t.Fatalf("Offer: %v", err)
				}
				return ok
			},
		})
		if err != nil {
			t.Fatalf("NewSender: %v", err)
		}
		senders[pl.Index] = sender
		recv := NewReceiver(s, pl.Ingress, func(ack *packet.Packet) {
			net.Node(pl.Egress).Inject(ack)
		})
		net.Node(pl.Egress).SetApp(appFn(recv.Deliver))
		net.Node(pl.Ingress).SetApp(appFn(func(p *packet.Packet) {
			if p.Kind == packet.KindAck {
				sender.OnAck(p.Seq)
			}
		}))
		e.Start()
		if err := e.StartFlow(local); err != nil {
			t.Fatalf("StartFlow: %v", err)
		}
	}

	rng := sim.NewRNG(9)
	for _, name := range []string{"A", "B"} {
		core.NewRouter(net, net.Node(name), core.DefaultRouterConfig(), rng.Stream(name), core.ControlFeedback(net, net.Node(name), edges, nil)).Start()
	}

	for _, sender := range senders {
		sender.Start()
	}
	if err := s.Run(90 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}

	g1 := float64(senders[1].Acked()) / 90
	g2 := float64(senders[2].Acked()) / 90
	total := g1 + g2
	if total < 380 {
		t.Errorf("aggregate TCP goodput %.0f pkt/s, want near 500", total)
	}
	ratio := (g2 / 2) / g1
	if ratio < 0.6 || ratio > 1.7 {
		t.Errorf("weighted split broke for TCP aggregates: g1=%.0f g2=%.0f (normalized ratio %.2f)", g1, g2, ratio)
	}
}
