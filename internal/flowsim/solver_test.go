package flowsim

import (
	"math"
	"math/rand"
	"testing"
)

// TestSolverAfterRunMatchesFresh holds the water-filler a run hands over
// (Output.Solver) to a fresh one, bit for bit: after churn runs under both
// controls and both solver modes — the incremental solver's state, the
// engine's raised blaster floors and every fill of the run left behind — it
// solves the oracle's questions, the blaster's rate taken off its links'
// capacities and contracts on shared links, plus random active sets and
// demands, exactly as NewSolver over the same model does. A second solve of
// the same question on the same solver returns the same bits too.
func TestSolverAfterRunMatchesFresh(t *testing.T) {
	for _, ctl := range []Control{ControlMarker, ControlLoss} {
		for _, solver := range []solverMode{solverFull, solverIncremental} {
			cfg := churnConfig(t, ctl, solver)
			m := cfg.Model
			out, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			used, fresh := out.Solver(), NewSolver(m)
			if used == nil {
				t.Fatalf("%v/%v: the run handed over no solver", ctl, solver)
			}
			rng := rand.New(rand.NewSource(int64(ctl)*10 + int64(solver)))
			n := len(m.Flows)
			for q := 0; q < 40; q++ {
				active := make([]bool, n)
				demand := make([]float64, n)
				var capacity []float64
				for i := range m.Flows {
					f := &m.Flows[i]
					active[i] = q == 0 || rng.Intn(3) > 0
					demand[i] = -1
					if q%4 == 3 {
						demand[i] = randomDemand(rng)
					}
					if f.FixedDemand == 0 || !active[i] {
						continue
					}
					if q%2 == 0 {
						// The Corelite oracle: the blast comes off the top
						// and the blaster is not water-filled.
						if capacity == nil {
							capacity = make([]float64, len(m.Links))
							for li := range m.Links {
								capacity[li] = m.Links[li].Capacity
							}
						}
						for _, li := range f.Links {
							capacity[li] = math.Max(0, capacity[li]-f.FixedDemand)
						}
						active[i] = false
					} else {
						// The CSFQ oracle: the blast rate caps its demand.
						demand[i] = f.FixedDemand
					}
				}
				want := fresh.Solve(capacity, active, demand)
				for pass := 0; pass < 2; pass++ {
					if i, ok := sameBits(used.Solve(capacity, active, demand), want); !ok {
						t.Fatalf("%v/%v question %d pass %d: flow %d differs from a fresh solver's %v",
							ctl, solver, q, pass, i, want[i])
					}
				}
			}
		}
	}
}

// TestSolveMaxMinIsOneShotSolver: the one-shot form is a fresh solver at the
// model's capacities, and passing those capacities explicitly changes
// nothing.
func TestSolveMaxMinIsOneShotSolver(t *testing.T) {
	m := churnConfig(t, ControlMarker, solverFull).Model
	rng := rand.New(rand.NewSource(7))
	active := make([]bool, len(m.Flows))
	demand := make([]float64, len(m.Flows))
	for i := range active {
		active[i] = rng.Intn(4) > 0
		demand[i] = randomDemand(rng)
	}
	capacity := make([]float64, len(m.Links))
	for li := range m.Links {
		capacity[li] = m.Links[li].Capacity
	}
	want := SolveMaxMin(m, active, demand)
	if i, ok := sameBits(NewSolver(m).Solve(capacity, active, demand), want); !ok {
		t.Fatalf("explicit model capacities: flow %d differs from SolveMaxMin's %v", i, want[i])
	}
}
