package flowsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestCheckNonWasteful runs the churn model under the checker, which must
// stay silent, and at its 6 s flush holds two broken allocations to the
// non-wastefulness check: all-zero rates and every rate 10 % low. Neither
// leaves any link saturated, so each must be reported for every live flow
// with a positive demand, by the flow's name and its most loaded link.
func TestCheckNonWasteful(t *testing.T) {
	for _, ctl := range []Control{ControlMarker, ControlLoss} {
		for _, solver := range []solverMode{solverFull, solverIncremental} {
			cfg := churnConfig(t, ctl, solver)
			var got []Violation
			cfg.OnViolation = func(v Violation) { got = append(got, v) }
			e, err := newEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.schedule()
			const at = 6 * time.Second
			for len(e.events) > 0 && (e.events[0].prio != prioFlush || e.events[0].at != at) {
				e.step()
			}
			e.step() // the flush at 6 s, the last event of its batch
			if len(got) != 0 {
				t.Fatalf("%v/%v: the unbroken run reports %d violations by %v, first %+v", ctl, solver, len(got), at, got[0])
			}
			var want []string
			for i, on := range e.active {
				if on && e.demand[i] > 0 {
					want = append(want, fmt.Sprintf("flow %d", e.m.Flows[i].Index))
				}
			}
			if len(want) < 50 {
				t.Fatalf("%v/%v: only %d flows live at %v", ctl, solver, len(want), at)
			}
			cur := slices.Clone(e.cur)
			for _, scale := range []float64{0, 0.9} {
				for i := range e.cur {
					e.cur[i] = scale * cur[i]
				}
				got = got[:0]
				e.check(at)
				var sites []string
				for _, v := range got {
					if v.Kind != KindWaste {
						continue
					}
					if !strings.Contains(v.Detail, "most loaded: ") {
						t.Errorf("%v/%v ×%g: %s: detail %q names no link", ctl, solver, scale, v.Site, v.Detail)
					}
					sites = append(sites, v.Site)
				}
				if !slices.Equal(sites, want) {
					t.Errorf("%v/%v: rates ×%g report waste at %d flows, want the %d live ones:\n got %v\nwant %v",
						ctl, solver, scale, len(sites), len(want), sites, want)
				}
			}
			copy(e.cur, cur)
			got = got[:0]
			for len(e.events) > 0 {
				e.step()
			}
			if len(got) != 0 {
				t.Fatalf("%v/%v: the unbroken run reports %d violations, first %+v", ctl, solver, len(got), got[0])
			}
		}
	}
}
