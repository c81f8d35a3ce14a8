package invariant_test

import (
	"bytes"
	"testing"

	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/trace"
)

// TestAllFiguresInvariants is the harness's acceptance gate: the checker
// rides along on every figure scenario of the paper's evaluation and must
// find zero violations — conservation, queue bounds, and marker accounting
// hold exactly, and the fairness residual stays within the per-figure
// tolerance (see experiments.FigureFairnessTol for the measured residuals
// that motivate each bound).
func TestAllFiguresInvariants(t *testing.T) {
	for _, sc := range experiments.AllFigures(1) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			sc.Check = invariant.New(invariant.Config{
				FairnessTol: experiments.FigureFairnessTol(sc.Name),
			})
			res, err := experiments.Run(sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if res.InvariantChecks == 0 {
				t.Fatal("checker attached but ran zero checks")
			}
			// One more sweep makes at most the comparisons each sweep of
			// the run made, and the fairness pass makes at most one per
			// flow, so the run swept at least twice: periodically, and
			// once more at its end.
			before := sc.Check.Checks()
			sc.Check.Sweep(sc.Duration)
			perSweep := sc.Check.Checks() - before
			if swept := res.InvariantChecks - int64(len(res.Flows)); perSweep < 2 || swept < 2*perSweep {
				t.Fatalf("%d structural checks at %d per sweep, want periodic sweeps plus the final one", swept, perSweep)
			}
		})
	}
}

// TestCheckerZeroPerturbation verifies the harness's core promise: a run
// with the checker attached emits byte-identical figure CSVs to the same
// run without it. The checker reads counters only, so the measured series
// cannot move.
func TestCheckerZeroPerturbation(t *testing.T) {
	render := func(check *invariant.Checker) map[trace.SeriesKind][]byte {
		sc := experiments.Fig5Scenario(1)
		sc.Check = check
		res, err := experiments.Run(sc)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		out := make(map[trace.SeriesKind][]byte)
		for _, kind := range []trace.SeriesKind{trace.SeriesAllowed, trace.SeriesReceived, trace.SeriesCumulative} {
			var buf bytes.Buffer
			if err := trace.WriteCSV(&buf, res, kind); err != nil {
				t.Fatalf("write %s: %v", kind, err)
			}
			out[kind] = buf.Bytes()
		}
		return out
	}
	plain := render(nil)
	checked := render(invariant.New(invariant.Config{}))
	for kind, want := range plain {
		if !bytes.Equal(want, checked[kind]) {
			t.Errorf("%s CSV differs with checker attached", kind)
		}
	}
}
