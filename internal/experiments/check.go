package experiments

import (
	"sort"
	"time"

	"repro/internal/flowsim"
	"repro/internal/invariant"
)

// phaseBounds returns the instants at which the set of active flows can
// change, sorted: 0, the horizon, and every schedule start/stop in between
// (stops resolved against the horizon, exactly as the runner resolves them).
// Membership is constant between consecutive bounds.
func phaseBounds(sc Scenario, flows []flowsim.Flow) []time.Duration {
	bset := map[time.Duration]bool{0: true, sc.Duration: true}
	for _, f := range flows {
		for _, iv := range scheduleOf(sc, f.Index) {
			stop := iv.Stop
			if stop == 0 || stop > sc.Duration {
				stop = sc.Duration
			}
			if iv.Start >= stop {
				continue
			}
			bset[iv.Start] = true
			bset[stop] = true
		}
	}
	bounds := make([]time.Duration, 0, len(bset))
	for b := range bset {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return bounds
}

// activeAt returns the flows whose schedule has them active at time t.
func activeAt(sc Scenario, flows []flowsim.Flow, t time.Duration) map[int]bool {
	active := make(map[int]bool)
	for _, f := range flows {
		if scheduleOf(sc, f.Index).ActiveAt(t, sc.Duration) {
			active[f.Index] = true
		}
	}
	return active
}

// steadyWindow finds the last interval of the run over which the set of
// active flows is constant and non-empty — the window the fairness oracle is
// compared over — by walking the phase bounds backwards.
func steadyWindow(sc Scenario, flows []flowsim.Flow) (from, to time.Duration, active map[int]bool, ok bool) {
	bounds := phaseBounds(sc, flows)
	for i := len(bounds) - 1; i > 0; i-- {
		lo, hi := bounds[i-1], bounds[i]
		if act := activeAt(sc, flows, lo+(hi-lo)/2); len(act) > 0 {
			return lo, hi, act, true
		}
	}
	return 0, 0, nil, false
}

// checkFairness feeds the invariant checker's differential oracle, for
// either engine: measured steady-state goodput per flow versus the weighted
// max-min allocation for the flows active over the last steady window. The
// goodput is averaged over the window's second half so convergence
// transients right after the last membership change do not count against
// the residual. TCP-transport flows are skipped (their goodput is
// congestion-control-, not shaper-limited), as are windows shorter than the
// configured minimum.
func checkFairness(sc Scenario, m *flowsim.Model, res *Result) {
	cfg := sc.Check.Config()
	from, to, active, ok := steadyWindow(sc, m.Flows)
	if !ok || to-from < cfg.MinSteady {
		return
	}
	expected, err := expectedRates(sc, m, active)
	if err != nil {
		return
	}
	mid := from + (to-from)/2
	rates := make([]invariant.FlowRate, 0, len(res.Flows))
	for i := range res.Flows {
		f := &res.Flows[i]
		if !active[f.Index] || sc.Transports[f.Index] == TransportTCP {
			continue
		}
		if _, unresp := sc.Unresponsive[f.Index]; unresp {
			// Unresponsive flows are not trying to be fair; the residual
			// judges only the responsive flows sharing the remainder.
			continue
		}
		exp, found := expected[f.Index]
		if !found {
			continue
		}
		rates = append(rates, invariant.FlowRate{
			Index:    f.Index,
			Expected: exp,
			Measured: f.ReceiveRate.MeanOver(mid, to),
		})
	}
	sc.Check.CheckFairness(to, rates)
}
