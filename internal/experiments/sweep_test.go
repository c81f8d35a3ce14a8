package experiments

import (
	"testing"
	"time"
)

// sweep runs the base scenario once per point, serially, and summarizes
// each run, as cmd/sweep does through the run pool.
func sweep(t *testing.T, base Scenario, points []SweepPoint) []SweepResult {
	t.Helper()
	var out []SweepResult
	for i, sc := range SweepScenarios(base, points) {
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("sweep point %q: %v", points[i].Label, err)
		}
		out = append(out, Summarize(points[i].Label, sc, res))
	}
	return out
}

// shortFig5 is a trimmed startup scenario for sweep tests.
func shortFig5() Scenario {
	sc := Fig5Scenario(1)
	sc.Duration = 40 * time.Second
	return sc
}

func TestSweepEpochSensitivity(t *testing.T) {
	results := sweep(t, shortFig5(), EpochSweep())
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	// The paper's claim is about the delivered fairness: it is preserved
	// across epoch sizes. Loss rates DO depend on the epoch because α is
	// per-epoch (a 50ms epoch doubles the probing ramp), so losses are
	// only bounded for the paper's epoch and slower.
	for _, r := range results {
		if r.Jain < 0.98 {
			t.Errorf("%s: Jain = %v, want >= 0.98 (low sensitivity)", r.Label, r.Jain)
		}
		if r.Label != "epoch=50ms" && r.LossRatio > 0.05 {
			t.Errorf("%s: loss ratio = %v, want < 5%%", r.Label, r.LossRatio)
		}
	}
}

func TestSweepQThreshSensitivity(t *testing.T) {
	results := sweep(t, shortFig5(), QThreshSweep())
	for _, r := range results {
		if r.Jain < 0.98 {
			t.Errorf("%s: Jain = %v, want >= 0.98", r.Label, r.Jain)
		}
	}
}

func TestSweepLatencySensitivity(t *testing.T) {
	results := sweep(t, shortFig5(), LatencySweep())
	for _, r := range results {
		if r.Jain < 0.97 {
			t.Errorf("%s: Jain = %v, want >= 0.97 (large-latency channels)", r.Label, r.Jain)
		}
	}
}

func TestSweepErrorPropagates(t *testing.T) {
	scs := SweepScenarios(shortFig5(), []SweepPoint{{
		Label:  "broken",
		Mutate: func(sc *Scenario) { sc.Duration = 0 },
	}})
	if _, err := Run(scs[0]); err == nil {
		t.Error("sweep with broken point succeeded")
	}
}

func TestSweepCustomValues(t *testing.T) {
	pts := EpochSweep(70 * time.Millisecond)
	if len(pts) != 1 || pts[0].Label != "epoch=70ms" {
		t.Errorf("EpochSweep custom = %+v", pts)
	}
	if got := K1Sweep(3); got[0].Label != "k1=3" {
		t.Errorf("K1Sweep custom = %+v", got)
	}
	if got := QThreshSweep(6); got[0].Label != "qthresh=6" {
		t.Errorf("QThreshSweep custom = %+v", got)
	}
	if got := LatencySweep(time.Second); got[0].Label != "latency=1s" {
		t.Errorf("LatencySweep custom = %+v", got)
	}
}
