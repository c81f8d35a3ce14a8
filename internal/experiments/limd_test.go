package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/flowsim"
)

// TestFluidMatchesPacketSimulation validates the packet-level simulator
// against the analytical model: both must settle on the same weighted
// max-min allocation for the Figure 5 weight profile (the paper's
// "simulations and analysis" agreement).
func TestFluidMatchesPacketSimulation(t *testing.T) {
	weights := []float64{1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	initial := make([]float64, len(weights))
	for i := range initial {
		initial[i] = 32
	}
	states, err := flowsim.RunLIMD(flowsim.LIMDConfig{Capacity: 500, Weights: weights, Initial: initial}, 20000, 100)
	if err != nil {
		t.Fatalf("fluid: %v", err)
	}
	fluid := states[len(states)-1].Rates

	res, err := RunFig5(1)
	if err != nil {
		t.Fatalf("packet sim: %v", err)
	}
	for i := 1; i <= 10; i++ {
		sim := res.Flow(i).AllowedRate.MeanOver(60*time.Second, 80*time.Second)
		fl := fluid[i-1]
		if fl <= 0 {
			t.Fatalf("fluid rate %d is 0", i)
		}
		if math.Abs(sim-fl)/fl > 0.25 {
			t.Errorf("flow %d: packet sim %v vs fluid %v differ by > 25%%", i, sim, fl)
		}
	}
}
