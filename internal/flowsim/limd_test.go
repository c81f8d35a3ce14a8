package flowsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// limdErrors measures a rate vector against the fairness/efficiency
// intersection: the relative L∞ spread of the normalized rates b_i/w_i
// around their mean, and |Σb − C|/C.
func limdErrors(rates, weights []float64, capacity float64) (fair, eff float64) {
	mean, total := 0.0, 0.0
	for i, r := range rates {
		mean += r / weights[i]
		total += r
	}
	mean /= float64(len(rates))
	for i, r := range rates {
		fair = math.Max(fair, math.Abs(r/weights[i]-mean)/mean)
	}
	return fair, math.Abs(total-capacity) / capacity
}

func finalRates(t *testing.T, cfg LIMDConfig, epochs, sample int) []float64 {
	t.Helper()
	states, err := RunLIMD(cfg, epochs, sample)
	if err != nil {
		t.Fatalf("RunLIMD: %v", err)
	}
	return states[len(states)-1].Rates
}

func TestFluidConvergesEqualWeights(t *testing.T) {
	cfg := LIMDConfig{
		Capacity: 500,
		Weights:  []float64{1, 1, 1, 1},
		Initial:  []float64{400, 10, 50, 5},
	}
	fair, eff := limdErrors(finalRates(t, cfg, 5000, 10), cfg.Weights, cfg.Capacity)
	if fair > 0.10 {
		t.Errorf("fairness error = %v, want <= 0.10", fair)
	}
	if eff > 0.10 {
		t.Errorf("efficiency error = %v, want <= 0.10", eff)
	}
}

func TestFluidConvergesWeighted(t *testing.T) {
	// The paper's fig5 weight profile, every flow at the slow-start exit.
	weights := []float64{1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	initial := make([]float64, len(weights))
	for i := range initial {
		initial[i] = 32
	}
	states, err := RunLIMD(LIMDConfig{Capacity: 500, Weights: weights, Initial: initial}, 20000, 50)
	if err != nil {
		t.Fatalf("RunLIMD: %v", err)
	}
	if first, last := states[0], states[len(states)-1]; first.Epoch != 0 || last.Epoch != 20000 || len(states) != 20000/50+1 {
		t.Errorf("recorded epochs %d..%d in %d states, want 0..20000 every 50", first.Epoch, last.Epoch, len(states))
	}
	// Normalized rates approach 500/30 = 16.67.
	for i, r := range states[len(states)-1].Rates {
		want := 500.0 / 30 * weights[i]
		if math.Abs(r-want)/want > 0.15 {
			t.Errorf("flow %d fluid rate = %v, want ~%v", i, r, want)
		}
	}
}

func TestFluidRespectsMinimums(t *testing.T) {
	cfg := LIMDConfig{
		Capacity: 500,
		Weights:  []float64{1, 1},
		Initial:  []float64{300, 300},
		Minimums: []float64{250, 0},
	}
	states, err := RunLIMD(cfg, 5000, 1)
	if err != nil {
		t.Fatalf("RunLIMD: %v", err)
	}
	for _, s := range states {
		if s.Rates[0] < 250-1e-9 {
			t.Fatalf("contracted flow dipped to %v at epoch %d", s.Rates[0], s.Epoch)
		}
	}
	final := states[len(states)-1].Rates
	// Flow 0 floor 250 + its share of the excess; flow 1 absorbs the rest.
	if final[0] < 250 || final[0] > 340 {
		t.Errorf("contracted fluid rate = %v", final[0])
	}
	if final[1] < 160 || final[1] > 260 {
		t.Errorf("best-effort fluid rate = %v", final[1])
	}
}

func TestFluidValidation(t *testing.T) {
	bad := []LIMDConfig{
		{Capacity: 0, Weights: []float64{1}, Initial: []float64{1}},
		{Capacity: 1, Weights: nil, Initial: nil},
		{Capacity: 1, Weights: []float64{1}, Initial: []float64{1, 2}},
		{Capacity: 1, Weights: []float64{-1}, Initial: []float64{1}},
		{Capacity: 1, Weights: []float64{1}, Initial: []float64{-1}},
		{Capacity: 1, Weights: []float64{1}, Initial: []float64{1}, Minimums: []float64{1, 2}},
	}
	for i, cfg := range bad {
		if _, err := RunLIMD(cfg, 10, 1); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	good := LIMDConfig{Capacity: 1, Weights: []float64{1}, Initial: []float64{1}}
	if _, err := RunLIMD(good, 0, 1); err == nil {
		t.Error("zero epochs accepted")
	}
}

// TestFluidConvergenceProperty: from any random start, the fluid dynamics
// reach the fairness/efficiency intersection — the Chiu-Jain result the
// paper's §2.2 invokes.
func TestFluidConvergenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 2
		weights := make([]float64, n)
		initial := make([]float64, n)
		for i := range weights {
			weights[i] = float64(rng.Intn(5) + 1)
			initial[i] = float64(rng.Intn(400))
		}
		states, err := RunLIMD(LIMDConfig{Capacity: 500, Weights: weights, Initial: initial}, 30000, 100)
		if err != nil {
			return false
		}
		fair, eff := limdErrors(states[len(states)-1].Rates, weights, 500)
		return fair < 0.2 && eff < 0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
