package netem

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

func fredFlowID(name string) packet.FlowID { return packet.FlowID{Edge: name, Local: 0} }

func TestFREDProtectsFragileFlow(t *testing.T) {
	// A hog keeps the buffer full; a fragile flow sends one packet at a
	// time. FRED must admit the fragile flow's packets (qlen < MinQ)
	// while penalizing the hog.
	s := sim.NewScheduler()
	n := New(s)
	mustNode(t, n, "R")
	mustNode(t, n, "D")
	fred := NewFRED(DefaultFREDConfig(40, 2*time.Millisecond), s.Now, sim.NewRNG(5))
	mustLink(t, n, "R", "D", LinkConfig{RateBps: 4e6, Delay: time.Millisecond, Queue: fred})
	if err := n.ComputeRoutes(); err != nil {
		t.Fatalf("ComputeRoutes: %v", err)
	}
	received := map[string]int{}
	n.Node("D").SetApp(&sinkApp{now: s.Now})
	n.Node("D").SetApp(appFn(func(p *packet.Packet) { received[p.Flow.Edge]++ }))

	emit := func(edge string, rate float64, until time.Duration) {
		var seq int64
		gap := time.Duration(float64(time.Second) / rate)
		var fire func()
		fire = func() {
			p := packet.New(fredFlowID(edge), "D", seq, s.Now())
			seq++
			n.Node("R").Inject(p)
			if s.Now() < until {
				s.RescheduleAfter(gap)
			}
		}
		postAt(s, 0, fire)
	}
	// Link capacity 500 pkt/s; hog sends 900, fragile 50.
	emit("hog", 900, 10*time.Second)
	emit("fragile", 50, 10*time.Second)
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Fragile flow should get essentially all of its 500 packets through.
	if received["fragile"] < 450 {
		t.Errorf("fragile flow delivered %d of ~500", received["fragile"])
	}
	// The hog is clipped to roughly the remaining capacity.
	if received["hog"] > 4800 {
		t.Errorf("hog delivered %d, want clipped below offered 9000", received["hog"])
	}
	if fred.UnfairDrops == 0 {
		t.Error("FRED recorded no unfair-flow drops for the hog")
	}
}

type appFn func(*packet.Packet)

func (f appFn) Receive(p *packet.Packet) { f(p) }

func TestFREDStateOnlyForBufferedFlows(t *testing.T) {
	s := sim.NewScheduler()
	fred := NewFRED(DefaultFREDConfig(40, 2*time.Millisecond), s.Now, sim.NewRNG(5))
	for i := 0; i < 5; i++ {
		p := packet.New(fredFlowID("a"), "D", int64(i), 0)
		fred.Enqueue(p)
	}
	fred.Enqueue(packet.New(fredFlowID("b"), "D", 0, 0))
	if fred.ActiveFlows() != 2 {
		t.Fatalf("ActiveFlows = %d, want 2", fred.ActiveFlows())
	}
	// Drain flow b's single packet plus all of a's.
	for fred.Len() > 0 {
		fred.Dequeue()
	}
	if fred.ActiveFlows() != 0 {
		t.Errorf("ActiveFlows = %d after drain, want 0 (per-flow state freed)", fred.ActiveFlows())
	}
}

func TestFREDFairerThanRED(t *testing.T) {
	// Two non-adaptive flows at 5:1 offered load through a 500 pkt/s
	// link: RED divides throughput roughly in proportion to offered load;
	// FRED pushes the split toward equality. This is the §5 related-work
	// contrast the Corelite paper draws.
	run := func(q Discipline, s *sim.Scheduler, n *Network) map[string]int {
		received := map[string]int{}
		n.Node("D").SetApp(appFn(func(p *packet.Packet) { received[p.Flow.Edge]++ }))
		emit := func(edge string, rate float64) {
			var seq int64
			gap := time.Duration(float64(time.Second) / rate)
			var fire func()
			fire = func() {
				n.Node("R").Inject(packet.New(fredFlowID(edge), "D", seq, s.Now()))
				seq++
				if s.Now() < 20*time.Second {
					s.RescheduleAfter(gap)
				}
			}
			postAt(s, 0, fire)
		}
		emit("heavy", 750)
		emit("light", 150)
		if err := s.Run(20 * time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return received
	}

	build := func(mk func(s *sim.Scheduler) Discipline) map[string]int {
		s := sim.NewScheduler()
		n := New(s)
		mustNode(t, n, "R")
		mustNode(t, n, "D")
		mustLink(t, n, "R", "D", LinkConfig{RateBps: 4e6, Delay: time.Millisecond, Queue: mk(s)})
		if err := n.ComputeRoutes(); err != nil {
			t.Fatalf("ComputeRoutes: %v", err)
		}
		return run(nil, s, n)
	}

	red := build(func(s *sim.Scheduler) Discipline {
		return NewRED(DefaultREDConfig(40, 2*time.Millisecond), s.Now, sim.NewRNG(5))
	})
	fred := build(func(s *sim.Scheduler) Discipline {
		return NewFRED(DefaultFREDConfig(40, 2*time.Millisecond), s.Now, sim.NewRNG(5))
	})

	redRatio := float64(red["heavy"]) / float64(red["light"])
	fredRatio := float64(fred["heavy"]) / float64(fred["light"])
	if fredRatio >= redRatio {
		t.Errorf("FRED ratio %.2f not fairer than RED ratio %.2f", fredRatio, redRatio)
	}
	// The light flow is below its fair share (250), so FRED should pass
	// essentially all of it.
	if fred["light"] < 2700 { // 150 pkt/s * 20s = 3000 offered
		t.Errorf("FRED delivered %d of light flow's 3000", fred["light"])
	}
}

func TestFREDCapacityOverflow(t *testing.T) {
	s := sim.NewScheduler()
	fred := NewFRED(FREDConfig{
		Capacity:  4,
		MinThresh: 100, // effectively disable RED behaviour
		MaxThresh: 200,
		MaxP:      0.1,
		Weight:    0.002,
		MinQ:      100, // and per-flow limits
	}, s.Now, sim.NewRNG(5))
	accepted := 0
	for i := 0; i < 10; i++ {
		if fred.Enqueue(packet.New(fredFlowID("x"), "D", int64(i), 0)) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Errorf("accepted %d into capacity-4 FRED, want 4", accepted)
	}
}
