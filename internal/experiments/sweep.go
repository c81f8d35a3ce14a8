package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// SweepPoint is one variation of a base scenario.
type SweepPoint struct {
	// Label names the point in output (e.g. "epoch=50ms").
	Label string
	// Mutate applies the variation to a copy of the base scenario.
	Mutate func(*Scenario)
}

// SweepResult summarizes one sweep point's run.
type SweepResult struct {
	// Label echoes the point.
	Label string
	// Losses and LossRatio quantify packet loss.
	Losses    int64
	LossRatio float64
	// Jain is the fairness index over normalized allowed rates at the
	// end of the run.
	Jain float64
	// WorstConv is the slowest flow's convergence time to ±25% of its
	// expected share; AllConverged reports whether every flow settled.
	WorstConv    time.Duration
	AllConverged bool
}

// SweepScenarios expands a base scenario into one spec per sweep point —
// the pure description of the §4.4 sensitivity batch, ready to hand to an
// execution engine (internal/run) or to Run serially. The returned slice
// is index-aligned with points.
func SweepScenarios(base Scenario, points []SweepPoint) []Scenario {
	out := make([]Scenario, 0, len(points))
	for _, pt := range points {
		sc := base
		if pt.Mutate != nil {
			pt.Mutate(&sc)
		}
		sc.Name = base.Name + "/" + pt.Label
		out = append(out, sc)
	}
	return out
}

// Summarize condenses one sweep run into the loss / fairness /
// convergence row the §4.4 table prints.
func Summarize(label string, sc Scenario, res *Result) SweepResult {
	var delivered int64
	for _, f := range res.Flows {
		delivered += f.Delivered
	}
	sr := SweepResult{
		Label:  label,
		Losses: res.TotalLosses,
		Jain:   res.JainIndexAt(res.Duration-res.SampleWindow, sc),
	}
	if delivered > 0 {
		sr.LossRatio = float64(res.TotalLosses) / float64(delivered)
	}
	worst := time.Duration(0)
	all := true
	for _, f := range res.Flows {
		at, ok := metrics.ConvergenceTime(f.AllowedRate, res.ExpectedFullSet[f.Index], 0.25)
		if !ok {
			all = false
			continue
		}
		if at > worst {
			worst = at
		}
	}
	sr.WorstConv = worst
	sr.AllConverged = all
	return sr
}

// EpochSweep varies the congestion/adaptation epoch (paper §4.4: "different
// core router epoch sizes").
func EpochSweep(values ...time.Duration) []SweepPoint {
	if len(values) == 0 {
		values = []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	}
	out := make([]SweepPoint, 0, len(values))
	for _, v := range values {
		v := v
		out = append(out, SweepPoint{
			Label: fmt.Sprintf("epoch=%v", v),
			Mutate: func(sc *Scenario) {
				edge := core.DefaultEdgeConfig()
				edge.Epoch = v
				router := core.DefaultRouterConfig()
				router.Epoch = v
				sc.EdgeConfig = edge
				sc.RouterConfig = router
			},
		})
	}
	return out
}

// QThreshSweep varies the congestion-detection threshold ("different
// marking thresholds").
func QThreshSweep(values ...float64) []SweepPoint {
	if len(values) == 0 {
		values = []float64{4, 8, 12, 16}
	}
	out := make([]SweepPoint, 0, len(values))
	for _, v := range values {
		v := v
		out = append(out, SweepPoint{
			Label: fmt.Sprintf("qthresh=%v", v),
			Mutate: func(sc *Scenario) {
				router := core.DefaultRouterConfig()
				router.QThresh = v
				sc.RouterConfig = router
			},
		})
	}
	return out
}

// LatencySweep varies the per-hop propagation latency ("channels with
// large latencies").
func LatencySweep(values ...time.Duration) []SweepPoint {
	if len(values) == 0 {
		values = []time.Duration{10 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond}
	}
	out := make([]SweepPoint, 0, len(values))
	for _, v := range values {
		v := v
		out = append(out, SweepPoint{
			Label: fmt.Sprintf("latency=%v", v),
			Mutate: func(sc *Scenario) {
				sc.TopologyOptions.LinkDelay = v
			},
		})
	}
	return out
}

// K1Sweep varies the marking constant.
func K1Sweep(values ...float64) []SweepPoint {
	if len(values) == 0 {
		values = []float64{0.5, 1, 2, 4}
	}
	out := make([]SweepPoint, 0, len(values))
	for _, v := range values {
		v := v
		out = append(out, SweepPoint{
			Label: fmt.Sprintf("k1=%v", v),
			Mutate: func(sc *Scenario) {
				edge := core.DefaultEdgeConfig()
				edge.K1 = v
				sc.EdgeConfig = edge
			},
		})
	}
	return out
}
