package experiments

import (
	"math"
	"testing"

	"repro/internal/invariant"
)

// TestBackendDifferentialFigures is the acceptance pin for the engine seam:
// every paper figure runs on both backends, and over the final steady
// window (second half, exactly as the fairness oracle measures) the fluid
// rates must agree with the packet rates within the figure's fairness
// tolerance. Both engines are independently within that tolerance of the
// max-min oracle, so their mutual deviation is bounded by the same
// machinery; empirically the fluid engine tracks the packet engine well
// inside it. The flow-backend run also carries an invariant checker and
// must finish with zero violations.
func TestBackendDifferentialFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("differential figures are long")
	}
	for _, sc := range AllFigures(DefaultSeed) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			tol := FigureFairnessTol(sc.Name)

			pr, err := Run(sc)
			if err != nil {
				t.Fatalf("packet run: %v", err)
			}

			fl := sc
			fl.Backend = BackendFlow
			fl.Check = invariant.New(invariant.Config{FairnessTol: tol})
			fr, err := Run(fl)
			if err != nil {
				t.Fatalf("flow run: %v", err)
			}
			if len(fr.Violations) != 0 {
				for _, v := range fr.Violations {
					t.Errorf("flow backend violation: %v", v)
				}
			}
			if fr.InvariantChecks == 0 {
				t.Errorf("flow backend ran no invariant checks")
			}

			norm, err := sc.normalize()
			if err != nil {
				t.Fatalf("normalize: %v", err)
			}
			m, err := buildFlowModel(norm)
			if err != nil {
				t.Fatalf("build flow model: %v", err)
			}
			from, to, active, ok := steadyWindow(norm, m.Flows)
			if !ok {
				t.Fatalf("no steady window")
			}
			mid := from + (to-from)/2

			worst, worstFlow := 0.0, 0
			for _, pf := range pr.Flows {
				if !active[pf.Index] {
					continue
				}
				ff := fr.Flow(pf.Index)
				if ff == nil {
					t.Fatalf("flow backend missing flow %d", pf.Index)
				}
				pm := pf.ReceiveRate.MeanOver(mid, to)
				fm := ff.ReceiveRate.MeanOver(mid, to)
				if pm <= 0 {
					continue
				}
				if d := math.Abs(fm-pm) / pm; d > worst {
					worst, worstFlow = d, pf.Index
				}
			}
			t.Logf("%s: worst |flow−packet|/packet = %.3f over [%v, %v] (flow %d, tol %.2f)",
				sc.Name, worst, mid, to, worstFlow, tol)
			if worst > tol {
				t.Errorf("steady-window backend disagreement %.1f%% (flow %d) exceeds figure tolerance %.1f%%",
					100*worst, worstFlow, 100*tol)
			}
		})
	}
}
