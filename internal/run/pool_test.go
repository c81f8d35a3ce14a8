package run

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/netem"
	"repro/internal/trace"
)

// shortBatch is a mixed Corelite/CSFQ batch small enough for tests but
// large enough to keep eight workers busy at once.
func shortBatch() []Job {
	var scs []experiments.Scenario
	for i, base := range []experiments.Scenario{
		experiments.Fig5Scenario(1),
		experiments.Fig6Scenario(2),
		experiments.Fig7Scenario(3),
		experiments.Fig8Scenario(4),
	} {
		base.Duration = time.Duration(6+i) * time.Second
		scs = append(scs, base)
	}
	for i := 0; i < 4; i++ {
		scs = append(scs, experiments.Scenario{
			Name:     "dumbbell-" + string(rune('a'+i)),
			Scheme:   experiments.SchemeCorelite,
			Duration: 5 * time.Second,
			Seed:     int64(i + 1),
			NumFlows: 2,
			Weights:  map[int]float64{1: 1, 2: 2},
			Dumbbell: true,
		})
	}
	return FromScenarios(scs...)
}

// render serializes every result the way the CLIs do (CSV per series kind
// plus the human summary), so byte equality here is exactly the guarantee
// cmd/figures relies on.
func render(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %q: %v", r.Job.Name, r.Err)
		}
		for _, kind := range []trace.SeriesKind{trace.SeriesAllowed, trace.SeriesReceived, trace.SeriesCumulative} {
			if err := trace.WriteCSV(&buf, r.Output, kind); err != nil {
				t.Fatalf("WriteCSV %q: %v", r.Job.Name, err)
			}
		}
		if err := trace.WriteSummary(&buf, r.Output); err != nil {
			t.Fatalf("WriteSummary %q: %v", r.Job.Name, err)
		}
	}
	return buf.Bytes()
}

// TestParallelMatchesSerial is the determinism contract of the engine
// layer: the same batch run on one worker and on eight produces
// byte-identical rendered output, because results are keyed by job, not by
// completion order.
func TestParallelMatchesSerial(t *testing.T) {
	jobs := shortBatch()
	serial, err := New(Config{Workers: 1}).Execute(context.Background(), jobs)
	if err != nil {
		t.Fatalf("serial execute: %v", err)
	}
	parallel, err := New(Config{Workers: 8}).Execute(context.Background(), jobs)
	if err != nil {
		t.Fatalf("parallel execute: %v", err)
	}
	a, b := render(t, serial), render(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("parallel output differs from serial output (%d vs %d bytes)", len(a), len(b))
	}
	for i, r := range parallel {
		if r.Job.Name != jobs[i].Name {
			t.Fatalf("result %d out of order: name %q", i, r.Job.Name)
		}
		if r.Stats.Events == 0 || r.Stats.Wall <= 0 || r.Stats.EventsPerSec <= 0 {
			t.Errorf("job %q missing instrumentation: %+v", r.Job.Name, r.Stats)
		}
	}
}

// TestJobErrorIsolated checks that one invalid spec fails only its own
// result.
func TestJobErrorIsolated(t *testing.T) {
	jobs := []Job{
		{Name: "good", Scenario: experiments.Fig5Scenario(1)},
		{Name: "bad", Scenario: experiments.Scenario{Name: "bad"}}, // no scheme
		{Name: "also-good", Scenario: experiments.Fig6Scenario(1)},
	}
	jobs[0].Scenario.Duration = 3 * time.Second
	jobs[2].Scenario.Duration = 3 * time.Second
	results, err := New(Config{Workers: 2}).Execute(context.Background(), jobs)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("invalid scenario did not fail its job")
	}
}

// panicTracer panics on the first packet event, simulating a buggy
// user-supplied observer inside the simulation.
type panicTracer struct{}

func (panicTracer) Trace(netem.TraceEvent) { panic("tracer exploded") }

// TestPanicBecomesJobFailure checks that a panicking scenario fails its
// job, not the process, and that the rest of the batch completes.
func TestPanicBecomesJobFailure(t *testing.T) {
	bomb := experiments.Scenario{
		Name:     "bomb",
		Scheme:   experiments.SchemeCorelite,
		Duration: 2 * time.Second,
		Seed:     1,
		NumFlows: 1,
		Dumbbell: true,
		Tracer:   panicTracer{},
	}
	ok := experiments.Fig5Scenario(1)
	ok.Duration = 3 * time.Second
	results, err := New(Config{Workers: 2}).Execute(context.Background(), FromScenarios(bomb, ok))
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panicked") {
		t.Errorf("panic not captured: %v", results[0].Err)
	}
	// The message names the job by batch index and by name, so a failure
	// in a large sweep is findable without cross-referencing the output.
	if results[0].Err != nil && !strings.Contains(results[0].Err.Error(), `job 0 ("bomb")`) {
		t.Errorf("panic error does not identify the job: %v", results[0].Err)
	}
	if results[0].Output != nil {
		t.Error("panicked job still produced output")
	}
	if results[1].Err != nil {
		t.Errorf("surviving job failed: %v", results[1].Err)
	}
}

// TestCancelledContext checks that a pre-cancelled context runs nothing
// and stamps every job with the context error.
func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := New(Config{Workers: 4}).Execute(ctx, shortBatch())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("execute error = %v, want context.Canceled", err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %q: err = %v, want context.Canceled", r.Job.Name, r.Err)
		}
		if r.Output != nil {
			t.Errorf("job %q ran despite cancellation", r.Job.Name)
		}
	}
}

// TestWorkerDefaults checks the GOMAXPROCS default bound.
func TestWorkerDefaults(t *testing.T) {
	if got, want := New(Config{}).workers, runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default workers = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := New(Config{Workers: 3}).workers; got != 3 {
		t.Errorf("workers = %d, want 3", got)
	}
}

// TestDeriveSeed checks reproducibility and decorrelation of per-job
// seeds.
func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, "fig5") != DeriveSeed(1, "fig5") {
		t.Error("DeriveSeed is not deterministic")
	}
	seen := map[int64]string{}
	for _, name := range []string{"fig3", "fig5", "fig6", "r1", "r2", "r3"} {
		for base := int64(1); base <= 3; base++ {
			s := DeriveSeed(base, name)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %q/%d and %s both map to %d", name, base, prev, s)
			}
			seen[s] = name
		}
	}
}

// TestOnDoneObservesEveryJob checks the progress hook fires exactly once
// per job with serialized calls.
func TestOnDoneObservesEveryJob(t *testing.T) {
	jobs := shortBatch()[:4]
	var seen []string
	pool := New(Config{Workers: 4, OnDone: func(r Result) { seen = append(seen, r.Job.Name) }})
	if _, err := pool.Execute(context.Background(), jobs); err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("OnDone fired %d times, want %d", len(seen), len(jobs))
	}
	got := map[string]bool{}
	for _, n := range seen {
		got[n] = true
	}
	for _, j := range jobs {
		if !got[j.Name] {
			t.Errorf("OnDone never saw job %q", j.Name)
		}
	}
}
