package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestMinRateContractScenario(t *testing.T) {
	// Three equal-weight flows on a 500 pkt/s bottleneck; flow 1 holds a
	// 300 pkt/s contract. Expected: flow 1 = 300 + 200/3 ≈ 367, flows 2-3
	// ≈ 67 each.
	sc := Scenario{
		Name:     "contract",
		Scheme:   SchemeCorelite,
		Duration: 120 * time.Second,
		Seed:     1,
		NumFlows: 3,
		Weights:  map[int]float64{1: 1, 2: 1, 3: 1},
		MinRates: map[int]float64{1: 300},
		Dumbbell: true,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want1 := 300 + 200.0/3
	if math.Abs(res.ExpectedFullSet[1]-want1) > 1e-6 {
		t.Fatalf("oracle expected[1] = %v, want %v", res.ExpectedFullSet[1], want1)
	}

	r1 := res.Flow(1).AllowedRate.MeanOver(90*time.Second, 120*time.Second)
	r2 := res.Flow(2).AllowedRate.MeanOver(90*time.Second, 120*time.Second)
	r3 := res.Flow(3).AllowedRate.MeanOver(90*time.Second, 120*time.Second)
	if r1 < 300 {
		t.Errorf("contracted flow mean rate %v fell below its 300 pkt/s floor", r1)
	}
	if r1 < 310 || r1 > 430 {
		t.Errorf("contracted flow mean rate = %v, want ~367", r1)
	}
	for i, r := range map[int]float64{2: r2, 3: r3} {
		if r < 40 || r > 100 {
			t.Errorf("best-effort flow %d mean rate = %v, want ~67", i, r)
		}
	}

	// The floor must hold at every sample once the flow is active.
	for _, s := range res.Flow(1).AllowedRate {
		if s.Value < 300-1e-9 {
			t.Fatalf("contracted rate dipped to %v at %v", s.Value, s.At)
		}
	}
}

func TestMinRateValidation(t *testing.T) {
	base := Scenario{
		Scheme:   SchemeCSFQ,
		Duration: time.Second,
		NumFlows: 1,
		MinRates: map[int]float64{1: 10},
		Dumbbell: true,
	}
	if _, err := Run(base); err == nil {
		t.Error("CSFQ scenario with contracts accepted")
	}
	neg := base
	neg.Scheme = SchemeCorelite
	neg.MinRates = map[int]float64{1: -5}
	if _, err := Run(neg); err == nil {
		t.Error("negative contract accepted")
	}
	// Over-subscribed contracts are refused up front, with the link named,
	// on both backends and at every size: the 20-slot dumbbell and a
	// generated 300-flow fabric whose every flow asks for 400 of its
	// 500 pkt/s links. The packet engine must not have advanced simulated
	// time when it says so.
	gen, err := ParseGenerate("fattree:k=4,flows=300", "")
	if err != nil {
		t.Fatal(err)
	}
	everyFlow := make(map[int]float64, 300)
	for i := 1; i <= 300; i++ {
		everyFlow[i] = 400
	}
	for _, over := range []Scenario{
		{Name: "dumbbell", NumFlows: 2, MinRates: map[int]float64{1: 400, 2: 400}, Dumbbell: true},
		{Name: "fattree-300", Generate: gen, MinRates: everyFlow},
	} {
		over.Scheme = SchemeCorelite
		over.Duration = 2 * time.Second
		for _, backend := range []Backend{BackendPacket, BackendFlow} {
			over.Backend = backend
			over.Progress = new(obs.Progress)
			_, err := Run(over)
			if err == nil || !strings.Contains(err.Error(), "contracted minimums over-subscribe link \"") {
				t.Errorf("%s on %v: err = %v, want the over-subscription error naming the link", over.Name, backend, err)
			}
			if snap := over.Progress.Snapshot(); snap.Sim != 0 || snap.Events != 0 {
				t.Errorf("%s on %v: refused only after simulating to %v (%d events)", over.Name, backend, snap.Sim, snap.Events)
			}
		}
	}
}
