package main

import (
	"math"
	"testing"

	"repro/internal/flowsim"
)

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("1, 2.5 ,3")
	if err != nil || len(got) != 3 || got[1] != 2.5 {
		t.Errorf("parseFloats = %v, %v", got, err)
	}
	if _, err := parseFloats("a,b"); err == nil {
		t.Error("bad list accepted")
	}
	if _, err := parseFloats(" , "); err == nil {
		t.Error("empty list accepted")
	}
}

func TestRunDefaults(t *testing.T) {
	if err := run([]string{"-epochs", "5000", "-sample", "5000"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-weights", "x"}); err == nil {
		t.Error("bad weights accepted")
	}
	if err := run([]string{"-initial", "1"}); err == nil {
		t.Error("mismatched initial length accepted")
	}
	if err := run([]string{"-capacity", "0"}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestFairnessAndEfficiencyErrorEdgeCases(t *testing.T) {
	if !math.IsInf(fairnessError(nil, nil), 1) {
		t.Error("fairnessError(nil) should be +Inf")
	}
	if !math.IsInf(fairnessError([]float64{0, 0}, []float64{1, 1}), 1) {
		t.Error("fairnessError of all-zero rates should be +Inf")
	}
	if got := fairnessError([]float64{10, 20}, []float64{1, 2}); got != 0 {
		t.Errorf("perfectly weighted-fair error = %v, want 0", got)
	}
	if !math.IsInf(efficiencyError([]float64{1}, 0), 1) {
		t.Error("efficiencyError with zero capacity should be +Inf")
	}
	if got := efficiencyError([]float64{250, 250}, 500); got != 0 {
		t.Errorf("exact efficiency error = %v, want 0", got)
	}
}

// TestConvergenceEpoch checks convergence detection on the paper's fig5
// weight profile: the trajectory settles within 15% of the
// fairness/efficiency intersection at some recorded epoch and stays there,
// and a trajectory that ends off the intersection never converges.
func TestConvergenceEpoch(t *testing.T) {
	weights := []float64{1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	initial := make([]float64, len(weights))
	for i := range initial {
		initial[i] = 32
	}
	states, err := flowsim.RunLIMD(flowsim.LIMDConfig{Capacity: 500, Weights: weights, Initial: initial}, 20000, 50)
	if err != nil {
		t.Fatal(err)
	}
	epoch, ok := convergenceEpoch(states, weights, 500, 0.15)
	if !ok || epoch <= 0 || epoch > 20000 {
		t.Fatalf("convergence epoch = %d, %v; want one in (0, 20000]", epoch, ok)
	}
	for _, st := range states {
		if st.Epoch >= epoch && (fairnessError(st.Rates, weights) > 0.15 || efficiencyError(st.Rates, 500) > 0.15) {
			t.Fatalf("epoch %d after convergence at %d is off the intersection", st.Epoch, epoch)
		}
	}
	if _, ok := convergenceEpoch(states[:1], weights, 500, 0.15); ok {
		t.Error("the all-32 start converged")
	}
}
