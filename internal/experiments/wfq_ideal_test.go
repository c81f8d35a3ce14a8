package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

// TestCoreliteApproachesWFQIdeal quantifies the paper's positioning: a
// stateful WFQ scheduler (per-flow queues at the bottleneck) delivers
// exact weighted shares; Corelite must approximate those shares with no
// per-flow state in the core. We run the same 1:2:3 weight profile through
// both and compare each to the max-min oracle.
func TestCoreliteApproachesWFQIdeal(t *testing.T) {
	weights := map[int]float64{1: 1, 2: 2, 3: 3}
	oracle := map[int]float64{1: 500.0 / 6, 2: 500.0 / 3, 3: 250}

	// --- Stateful ideal: WFQ bottleneck, greedy unresponsive sources.
	wfqShares := func() map[int]float64 {
		s := sim.NewScheduler()
		net := netem.New(s)
		for _, n := range []string{"R", "D"} {
			if _, err := net.AddNode(n); err != nil {
				t.Fatal(err)
			}
		}
		flowWeights := map[packet.FlowID]float64{}
		for i := 1; i <= 3; i++ {
			flowWeights[packet.FlowID{Edge: "src", Local: i}] = weights[i]
		}
		q := baseline.NewWFQ(40, func(f packet.FlowID) float64 { return flowWeights[f] })
		if _, err := net.AddLink("R", "D", netem.LinkConfig{RateBps: 4e6, Delay: time.Millisecond, Queue: q}); err != nil {
			t.Fatal(err)
		}
		if err := net.ComputeRoutes(); err != nil {
			t.Fatal(err)
		}
		received := map[int]int{}
		net.Node("D").SetApp(deliverApp(func(p *packet.Packet) { received[p.Flow.Local]++ }))
		// Each flow greedily offers 400 pkt/s (total 1200 into 500).
		for i := 1; i <= 3; i++ {
			i := i
			var seq int64
			var fire func()
			fire = func() {
				net.Node("R").Inject(packet.New(packet.FlowID{Edge: "src", Local: i}, "D", seq, s.Now()))
				seq++
				if s.Now() < 30*time.Second {
					s.RescheduleAfter(2500 * time.Microsecond)
				}
			}
			postAt(s, time.Duration(i)*100*time.Microsecond, fire)
		}
		if err := s.Run(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		out := map[int]float64{}
		for i := 1; i <= 3; i++ {
			out[i] = float64(received[i]) / 30
		}
		return out
	}()

	// --- Core-stateless: Corelite scenario on the dumbbell.
	res, err := Run(Scenario{
		Name:     "vs-wfq",
		Scheme:   SchemeCorelite,
		Duration: 90 * time.Second,
		Seed:     1,
		NumFlows: 3,
		Weights:  weights,
		Dumbbell: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	worstDeviation := func(shares map[int]float64) float64 {
		worst := 0.0
		for i := 1; i <= 3; i++ {
			d := math.Abs(shares[i]-oracle[i]) / oracle[i]
			if d > worst {
				worst = d
			}
		}
		return worst
	}
	coreliteShares := map[int]float64{}
	for i := 1; i <= 3; i++ {
		coreliteShares[i] = res.Flow(i).AllowedRate.MeanOver(60*time.Second, 90*time.Second)
	}

	wfqDev := worstDeviation(wfqShares)
	clDev := worstDeviation(coreliteShares)
	t.Logf("oracle %v | wfq %v (dev %.1f%%) | corelite %v (dev %.1f%%)",
		oracle, wfqShares, wfqDev*100, coreliteShares, clDev*100)

	// WFQ is the exact ideal (a few % from quantization).
	if wfqDev > 0.06 {
		t.Errorf("WFQ deviation = %.1f%%, want < 6%% (the stateful ideal)", wfqDev*100)
	}
	// Corelite approximates it without core state.
	if clDev > 0.20 {
		t.Errorf("Corelite deviation = %.1f%%, want < 20%% of the oracle", clDev*100)
	}
}

// postAt runs fn at time t on s, through a handler registered for it.
func postAt(s *sim.Scheduler, t time.Duration, fn func()) {
	s.PostHandlerAt(t, s.RegisterHandler(func(uint32) { fn() }), 0)
}
