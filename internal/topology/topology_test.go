package topology

import (
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/maxmin"
	"repro/internal/sim"
)

// expectedRates solves the cloud's max-min problem for the active set (nil =
// all flows) on the reference solver, keyed by flow index.
func expectedRates(t *testing.T, c *Cloud, active map[int]bool) map[int]float64 {
	t.Helper()
	alloc, err := maxmin.SolveWithMinimums(c.MaxMinProblem(active), nil)
	if err != nil {
		t.Fatalf("maxmin: %v", err)
	}
	rates := make(map[int]float64, len(alloc))
	for name, r := range alloc {
		idx, err := strconv.Atoi(name)
		if err != nil {
			t.Fatalf("flow key %q: %v", name, err)
		}
		rates[idx] = r
	}
	return rates
}

func TestPaperTopologyStructure(t *testing.T) {
	s := sim.NewScheduler()
	c, err := Paper(s, Options{NumFlows: 20, Weights: WeightsFig3(), DefaultWeight: 2})
	if err != nil {
		t.Fatalf("Paper: %v", err)
	}
	if len(c.Placements) != 20 {
		t.Fatalf("placements = %d, want 20", len(c.Placements))
	}
	if len(c.CoreLinks) != 3 {
		t.Fatalf("core links = %d, want 3", len(c.CoreLinks))
	}
	for _, name := range []string{LinkC1C2, LinkC2C3, LinkC3C4} {
		l := c.CoreLinks[name]
		if l == nil {
			t.Fatalf("missing core link %s", name)
		}
		if got := l.PacketsPerSecond(1000); got != PacketsPerSecond {
			t.Errorf("%s service rate = %v pkt/s, want %v", name, got, PacketsPerSecond)
		}
	}
}

func TestPaperRTTs(t *testing.T) {
	s := sim.NewScheduler()
	c, err := Paper(s, Options{NumFlows: 20})
	if err != nil {
		t.Fatalf("Paper: %v", err)
	}
	wantRTT := map[int]time.Duration{
		1: 240 * time.Millisecond, 5: 240 * time.Millisecond,
		6: 320 * time.Millisecond, 8: 320 * time.Millisecond,
		9: 400 * time.Millisecond, 10: 400 * time.Millisecond,
		11: 240 * time.Millisecond, 13: 320 * time.Millisecond,
		16: 240 * time.Millisecond, 20: 240 * time.Millisecond,
	}
	for _, pl := range c.Placements {
		want, ok := wantRTT[pl.Index]
		if !ok {
			continue
		}
		if got := pl.RTT(); got != want {
			t.Errorf("flow %d RTT = %v, want %v", pl.Index, got, want)
		}
		// The routed one-way latency must equal Hops * LinkDelay.
		d, err := c.Net.PathDelay(pl.Ingress, pl.Egress)
		if err != nil {
			t.Fatalf("PathDelay flow %d: %v", pl.Index, err)
		}
		if d != want/2 {
			t.Errorf("flow %d routed one-way delay = %v, want %v", pl.Index, d, want/2)
		}
	}
}

func TestPaperExpectedRatesFullSet(t *testing.T) {
	s := sim.NewScheduler()
	c, err := Paper(s, Options{NumFlows: 20, Weights: WeightsFig3(), DefaultWeight: 2})
	if err != nil {
		t.Fatalf("Paper: %v", err)
	}
	rates := expectedRates(t, c, nil)
	// §4.1: with all flows, 25 pkt/s per unit weight.
	checks := map[int]float64{1: 25, 5: 75, 2: 50, 9: 50, 15: 75, 16: 25, 20: 50}
	for idx, want := range checks {
		if got := rates[idx]; math.Abs(got-want) > 1e-6 {
			t.Errorf("flow %d expected rate = %v, want %v", idx, got, want)
		}
	}
}

func TestPaperExpectedRatesSubset(t *testing.T) {
	s := sim.NewScheduler()
	c, err := Paper(s, Options{NumFlows: 20, Weights: WeightsFig3(), DefaultWeight: 2})
	if err != nil {
		t.Fatalf("Paper: %v", err)
	}
	active := make(map[int]bool)
	for i := 1; i <= 20; i++ {
		active[i] = true
	}
	for _, i := range []int{1, 9, 10, 11, 16} {
		active[i] = false
	}
	rates := expectedRates(t, c, active)
	// §4.1: without flows 1,9,10,11,16 the share is 33.33 per unit weight.
	if got := rates[5]; math.Abs(got-99.999999) > 0.01 {
		t.Errorf("flow 5 expected = %v, want ~100", got)
	}
	if got := rates[2]; math.Abs(got-66.6667) > 0.01 {
		t.Errorf("flow 2 expected = %v, want ~66.67", got)
	}
	if _, present := rates[1]; present {
		t.Error("inactive flow 1 appears in expected rates")
	}
}

func TestWeightProfiles(t *testing.T) {
	w3 := WeightsFig3()
	if w3[5] != 3 || w3[15] != 3 || w3[1] != 1 || w3[11] != 1 || w3[16] != 1 {
		t.Errorf("WeightsFig3 = %v", w3)
	}
	w7 := WeightsFig7()
	if w7[10] != 3 || w7[5] != 3 || w7[1] != 1 {
		t.Errorf("WeightsFig7 = %v", w7)
	}
	wc := WeightsCeilHalf(10)
	want := []float64{1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	for i := 1; i <= 10; i++ {
		if wc[i] != want[i-1] {
			t.Errorf("WeightsCeilHalf[%d] = %v, want %v", i, wc[i], want[i-1])
		}
	}
}

func TestFig5ExpectedRates(t *testing.T) {
	// §4.2: 10 flows, weight ⌈i/2⌉. C1-C2 carries all ten (Σw = 30), so
	// every flow is bottlenecked there at 16.67 per unit weight.
	s := sim.NewScheduler()
	c, err := Paper(s, Options{NumFlows: 10, Weights: WeightsCeilHalf(10)})
	if err != nil {
		t.Fatalf("Paper: %v", err)
	}
	rates := expectedRates(t, c, nil)
	perUnit := 500.0 / 30
	for i := 1; i <= 10; i++ {
		want := float64(perUnit * float64((i+1)/2))
		if math.Abs(rates[i]-want) > 1e-6 {
			t.Errorf("flow %d expected = %v, want %v", i, rates[i], want)
		}
	}
	// The paper calls out flows 7 and 8: "weighted fair share is around
	// 70 packets per second".
	if rates[7] < 60 || rates[7] > 75 {
		t.Errorf("flow 7 expected = %v, want ~66.7 ('around 70')", rates[7])
	}
}

func TestPaperOptionsValidation(t *testing.T) {
	s := sim.NewScheduler()
	if _, err := Paper(s, Options{NumFlows: 0}); err == nil {
		t.Error("NumFlows 0 accepted")
	}
	if _, err := Paper(s, Options{NumFlows: 21}); err == nil {
		t.Error("NumFlows 21 accepted")
	}
}

func TestDumbbell(t *testing.T) {
	s := sim.NewScheduler()
	c, err := Dumbbell(s, 3, map[int]float64{1: 1, 2: 2, 3: 3}, Options{})
	if err != nil {
		t.Fatalf("Dumbbell: %v", err)
	}
	if len(c.Placements) != 3 {
		t.Fatalf("placements = %d, want 3", len(c.Placements))
	}
	rates := expectedRates(t, c, nil)
	// Σw = 6 over 500 pkt/s.
	for i, w := range map[int]float64{1: 1, 2: 2, 3: 3} {
		want := float64(500.0 / 6 * w)
		if math.Abs(rates[i]-want) > 1e-6 {
			t.Errorf("flow %d expected = %v, want %v", i, rates[i], want)
		}
	}
	if _, err := Dumbbell(s, 0, nil, Options{}); err == nil {
		t.Error("Dumbbell with 0 flows accepted")
	}
}

func TestCustomLinkParameters(t *testing.T) {
	s := sim.NewScheduler()
	c, err := Paper(s, Options{
		NumFlows:    5,
		LinkDelay:   2 * time.Millisecond,
		LinkRateBps: 8e6,
	})
	if err != nil {
		t.Fatalf("Paper: %v", err)
	}
	l := c.CoreLinks[LinkC1C2]
	if l.Delay() != 2*time.Millisecond {
		t.Errorf("delay = %v, want 2ms", l.Delay())
	}
	if l.PacketsPerSecond(1000) != 1000 {
		t.Errorf("rate = %v pkt/s, want 1000", l.PacketsPerSecond(1000))
	}
}
