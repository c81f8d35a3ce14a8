package experiments

import (
	"testing"
	"time"
)

// TestFig7Fig8LossGap codifies the §4.3 staggered-entry claim: under rapid
// flow arrivals, Corelite's losses stay an order of magnitude below
// CSFQ's, and fairness at the end of the run is at least as good.
func TestFig7Fig8LossGap(t *testing.T) {
	cl, err := Run(Fig7Scenario(1))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Run(Fig8Scenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if cs.TotalLosses < 5*cl.TotalLosses {
		t.Errorf("loss gap too small: corelite %d vs csfq %d", cl.TotalLosses, cs.TotalLosses)
	}
	jCL := cl.JainIndexAt(79*time.Second, Fig7Scenario(1))
	jCS := cs.JainIndexAt(79*time.Second, Fig8Scenario(1))
	if jCL < 0.98 {
		t.Errorf("corelite staggered Jain = %v, want >= 0.98", jCL)
	}
	if jCL < jCS-0.02 {
		t.Errorf("corelite fairness %v noticeably worse than csfq %v", jCL, jCS)
	}
	// Late-arriving flows climb loss-free until near their share in
	// Corelite: flow 20 starts at t=19s; it must reach a healthy rate.
	f20 := cl.Flow(20)
	if rate, _ := f20.AllowedRate.ValueAt(79 * time.Second); rate < 25 {
		t.Errorf("late flow 20 rate = %v, want a real share (~50)", rate)
	}
}

// TestFig9ChurnRecovery codifies the §4.3 churn claim: flows that stop and
// restart re-converge, and the system remains fair through simultaneous
// arrivals and departures.
func TestFig9ChurnRecovery(t *testing.T) {
	res, err := Run(Fig9Scenario(1))
	if err != nil {
		t.Fatal(err)
	}
	sc := Fig9Scenario(1)
	// After the churn window ([65s, 80s]) everything has restarted; by
	// t=150s the allocation must be fair again.
	if j := res.JainIndexAt(150*time.Second, sc); j < 0.97 {
		t.Errorf("post-churn Jain = %v, want >= 0.97", j)
	}
	// A restarted flow (flow 1: stops at 60s, restarts at 65s) must be
	// back near its share at the end.
	expected, err := ExpectedRatesAt(sc, 150*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := res.Flow(1).AllowedRate.ValueAt(150 * time.Second)
	if want := expected[1]; r1 < want*0.5 || r1 > want*1.8 {
		t.Errorf("restarted flow 1 rate = %v, want ~%v", r1, want)
	}
	// And it must actually have gone quiet during its off window.
	during, _ := res.Flow(1).ReceiveRate.ValueAt(63 * time.Second)
	if during > 5 {
		t.Errorf("flow 1 still delivering %v pkt/s while stopped", during)
	}
}

// TestFig5LateThrottling codifies the §4.2 claim that Corelite flows
// "receive congestion notifications only after they are close to their
// respective fair share rates": the weight-5 flows must climb past 80% of
// their share before their rate ever decreases.
func TestFig5LateThrottling(t *testing.T) {
	res, err := Run(Fig5Scenario(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{9, 10} {
		series := res.Flow(idx).AllowedRate
		share := res.ExpectedFullSet[idx]
		peakBeforeDrop := 0.0
		for i := 1; i < len(series); i++ {
			if series[i].Value < series[i-1].Value {
				break
			}
			peakBeforeDrop = series[i].Value
		}
		if peakBeforeDrop < 0.8*share {
			t.Errorf("flow %d first throttled at %v, want after reaching 80%% of %v",
				idx, peakBeforeDrop, share)
		}
	}
}

// TestAtScaleRunners exercises the at-scale convenience wrappers end to
// end: both generated figures must expand, run, and report per-flow
// results for every generated slot.
func TestAtScaleRunners(t *testing.T) {
	fair, err := Run(FairnessAtScaleScenario(SchemeCorelite, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fair.Flows); got != FairnessAtScaleScenario(SchemeCorelite, 1).Generate.Topo.Flows {
		t.Errorf("fairness-at-scale flows = %d, want %d", got, FairnessAtScaleScenario(SchemeCorelite, 1).Generate.Topo.Flows)
	}
	tail, err := Run(ChurnTailScenario(SchemeCorelite, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tail.Flows); got != 16 {
		t.Errorf("churn-tail flows = %d, want 16", got)
	}
}
