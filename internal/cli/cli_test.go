package cli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/trace"
)

func parse(t *testing.T, checkTol float64, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var f Flags
	f.RegisterPool(fs, checkTol)
	f.RegisterTopology(fs)
	if err := f.Parse(fs, args); err != nil {
		t.Fatalf("Parse(%v): %v", args, err)
	}
	return &f
}

func TestRegisterPool(t *testing.T) {
	f := parse(t, 0.05, "-seed", "7", "-backend", "flow", "-duration", "3s", "-check-tol", "0.5")
	if f.Seed != 7 || f.Backend != experiments.BackendFlow || f.Duration != 3*time.Second || f.CheckTol != 0.5 {
		t.Errorf("parsed %+v", f)
	}
	if f := parse(t, 0.25); f.CheckTol != 0.25 || f.Duration != 80*time.Second || f.Backend != experiments.BackendPacket {
		t.Errorf("defaults %+v", f)
	}
	// Without a -check-tol default there is no -duration or -check-tol.
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var g Flags
	g.RegisterPool(fs, 0)
	if err := g.Parse(fs, []string{"-duration", "1s"}); err == nil {
		t.Error("-duration registered without a -check-tol default")
	}
	fs = flag.NewFlagSet("bad", flag.ContinueOnError)
	g.RegisterPool(fs, 0)
	if err := g.Parse(fs, []string{"-backend", "warp"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestTopology(t *testing.T) {
	if gen, spec, err := parse(t, 0.05).Topology(); gen != nil || spec != nil || err != nil {
		t.Errorf("no -topo: %v %v %v", gen, spec, err)
	}
	gen, spec, err := parse(t, 0.05, "-topo", "fattree:k=4,flows=8", "-traffic", "heavytail").Topology()
	if err != nil || gen == nil || gen.Traffic == nil || spec != nil {
		t.Errorf("generator -topo: %v %v %v", gen, spec, err)
	}
	path := filepath.Join(t.TempDir(), "t.topo")
	text := "node A core\nnode B core\nduplex A B 4Mbps 5ms\nnode in1 edge\nnode out1 edge\n" +
		"duplex in1 A 40Mbps 1ms\nduplex B out1 40Mbps 1ms\nflow 1 in1 out1 weight=2\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	gen, spec, err = parse(t, 0.05, "-topo", path).Topology()
	if err != nil || gen != nil || spec == nil || len(spec.Flows) != 1 || spec.Flows[0].Weight != 2 {
		t.Errorf("spec-file -topo: %v %v %v", gen, spec, err)
	}
	for _, args := range [][]string{{"-traffic", "heavytail"}, {"-topo", path, "-traffic", "heavytail"}} {
		if _, _, err := parse(t, 0.05, args...).Topology(); err == nil || !strings.Contains(err.Error(), "needs a generator -topo") {
			t.Errorf("%v: error %v, want the generator -topo refusal", args, err)
		}
	}
	if _, _, err := parse(t, 0.05, "-topo", "/does/not/exist").Topology(); err == nil {
		t.Error("missing spec file accepted")
	}
}

// TestRunAndReport drives the tail end to end: two dumbbell jobs under
// -check, -obs and both profiles report in job order, and a failed job
// comes back as its own result.
func TestRunAndReport(t *testing.T) {
	dir := t.TempDir()
	obsDir := filepath.Join(dir, "obs")
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	f := parse(t, 0.05, "-check", "-obs", obsDir, "-progress", "-parallel", "2", "-cpuprofile", cpu, "-memprofile", mem)
	sc := experiments.Scenario{Name: "a", Scheme: experiments.SchemeCorelite, Dumbbell: true, NumFlows: 2, Duration: 2 * time.Second, Seed: 1}
	bad := sc
	bad.Name, bad.NumFlows = "bad", -1
	var stdout, stderr bytes.Buffer
	results, err := f.Run(&stdout, &stderr, run.FromScenarios(sc, bad))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 2 || results[0].Err != nil || results[1].Err == nil {
		t.Fatalf("results %+v", results)
	}
	if got := stdout.String(); got != "wrote "+mem+"\nwrote "+cpu+"\n" {
		t.Errorf("profile lines %q", got)
	}
	if !strings.Contains(stderr.String(), "a done in") || strings.Contains(stderr.String(), "bad done") {
		t.Errorf("done lines %q", stderr.String())
	}
	stdout.Reset()
	if err := f.Report(&stdout, results[0], "  ", " a", "a."); err != nil {
		t.Fatalf("Report: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"  check a: ", " invariant checks passed\n", "  wrote " + filepath.Join(obsDir, "a.events.jsonl"), "  telemetry: "} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if st, err := os.Stat(filepath.Join(obsDir, "a.series.csv")); err != nil || st.Size() == 0 {
		t.Errorf("bundle missing: %v", err)
	}
}

func TestReportViolations(t *testing.T) {
	f := parse(t, 0.05, "-check")
	r := run.Result{Output: &experiments.Result{Violations: []invariant.Violation{{Site: "link X", Detail: "over capacity"}}, TotalViolations: 1}}
	var out bytes.Buffer
	err := f.Report(&out, r, "", " x", "")
	if err == nil || err.Error() != "1 invariant violation(s), 1 shown" {
		t.Errorf("error %v", err)
	}
	if !strings.HasPrefix(out.String(), "check x: VIOLATION ") || !strings.Contains(out.String(), "link X") {
		t.Errorf("violation line %q", out.String())
	}
}

// TestReportViolationsPastCap runs a job whose checker keeps one violation
// but finds more: the job's output and the report count all of them, and
// the report says how many it shows.
func TestReportViolationsPastCap(t *testing.T) {
	f := parse(t, 0.05, "-check")
	sc := experiments.Scenario{Name: "cap", Scheme: experiments.SchemeCorelite, Dumbbell: true, NumFlows: 3, Duration: 4 * time.Second, Seed: 1}
	// A fairness tolerance nothing meets makes every flow a violation.
	sc.Check = invariant.New(invariant.Config{FairnessTol: 1e-12, MinSteady: time.Second, MaxViolations: 1})
	results, err := f.Run(io.Discard, io.Discard, run.FromScenarios(sc))
	if err != nil || results[0].Err != nil {
		t.Fatalf("Run: %v %v", err, results[0].Err)
	}
	r := results[0]
	total := r.Output.TotalViolations
	if len(r.Output.Violations) != 1 || total <= 1 {
		t.Fatalf("kept %d, total %d: want 1 kept of more", len(r.Output.Violations), total)
	}
	var out bytes.Buffer
	err = f.Report(&out, r, "", "", "")
	if want := fmt.Sprintf("%d invariant violation(s), 1 shown", total); err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
	if n := strings.Count(out.String(), "VIOLATION"); n != 1 {
		t.Errorf("%d violation lines, want 1:\n%s", n, out.String())
	}
}

func TestWriteCSV(t *testing.T) {
	res, err := experiments.Run(experiments.Scenario{Name: "w", Scheme: experiments.SchemeCorelite, Dumbbell: true, NumFlows: 1, Duration: time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.csv")
	if err := WriteCSV(path, res, trace.SeriesAllowed); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); !strings.HasPrefix(string(data), "time_s,flow1") {
		t.Errorf("csv %q", data)
	}
	if err := WriteCSV(filepath.Join(t.TempDir(), "missing", "w.csv"), res, trace.SeriesAllowed); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

// shortJobs is a small mixed Corelite/CSFQ batch: three figure scenarios cut
// to a few seconds and a dumbbell.
func shortJobs() []run.Job {
	scs := []experiments.Scenario{experiments.Fig5Scenario(1), experiments.Fig6Scenario(2), experiments.Fig7Scenario(3)}
	for i := range scs {
		scs[i].Duration = time.Duration(6+i) * time.Second
	}
	scs = append(scs, experiments.Scenario{
		Name: "dumbbell", Scheme: experiments.SchemeCorelite, Duration: 5 * time.Second,
		Seed: 1, NumFlows: 2, Weights: map[int]float64{1: 1, 2: 2}, Dumbbell: true,
	})
	return run.FromScenarios(scs...)
}

// TestObservePerJobRegistries checks that -obs attaches a fresh registry to
// every job — never shared between parallel jobs — and fills
// Stats.Telemetry, while leaving figure output byte-identical to an
// unobserved batch.
func TestObservePerJobRegistries(t *testing.T) {
	plainResults, err := parse(t, 0.05, "-parallel", "4").Run(io.Discard, io.Discard, shortJobs())
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	obsResults, err := parse(t, 0.05, "-parallel", "4", "-obs", t.TempDir()).Run(io.Discard, io.Discard, shortJobs())
	if err != nil {
		t.Fatalf("observed run: %v", err)
	}

	seen := map[*obs.Registry]string{}
	for _, r := range obsResults {
		if r.Err != nil {
			t.Fatalf("job %q: %v", r.Job.Name, r.Err)
		}
		if r.Obs == nil {
			t.Fatalf("job %q has no registry under -obs", r.Job.Name)
		}
		if prev, dup := seen[r.Obs]; dup {
			t.Fatalf("jobs %q and %q share a registry", prev, r.Job.Name)
		}
		seen[r.Obs] = r.Job.Name
		tel := r.Stats.Telemetry
		if tel == nil {
			t.Fatalf("job %q has no telemetry summary", r.Job.Name)
		}
		if tel.Samples == 0 || tel.Events == 0 {
			t.Errorf("job %q telemetry looks empty: %+v", r.Job.Name, *tel)
		}
	}
	for _, r := range plainResults {
		if r.Obs != nil || r.Stats.Telemetry != nil {
			t.Fatalf("job %q carries telemetry without -obs", r.Job.Name)
		}
	}

	// Figure CSVs must be byte-identical — the sampler draws no randomness
	// and mutates no model state. The only permitted difference is the
	// processed-event count, which grows by exactly one event per sampling
	// instant.
	renderCSV := func(results []run.Result) []byte {
		var buf bytes.Buffer
		for _, r := range results {
			for _, kind := range []trace.SeriesKind{trace.SeriesAllowed, trace.SeriesReceived, trace.SeriesCumulative} {
				if err := trace.WriteCSV(&buf, r.Output, kind); err != nil {
					t.Fatalf("WriteCSV %q: %v", r.Job.Name, err)
				}
			}
		}
		return buf.Bytes()
	}
	if !bytes.Equal(renderCSV(plainResults), renderCSV(obsResults)) {
		t.Error("observability changed figure CSV output")
	}
	for i := range obsResults {
		extra := obsResults[i].Stats.Events - plainResults[i].Stats.Events
		samples := uint64(obsResults[i].Stats.Telemetry.Samples)
		if extra != samples {
			t.Errorf("job %q: event count grew by %d, want exactly the %d sampler ticks",
				obsResults[i].Job.Name, extra, samples)
		}
	}
}

// TestBackendOverride pins the -backend contract: Run retargets jobs that
// leave the backend at the packet default, and leaves explicit choices
// alone. The flow run is distinguishable from the packet run by its event
// count (the fluid engine processes thousands of events where the packet
// engine processes millions).
func TestBackendOverride(t *testing.T) {
	sc := experiments.Fig5Scenario(1)
	sc.Duration = 10 * time.Second
	runOne := func(f *Flags, sc experiments.Scenario) run.Result {
		t.Helper()
		results, err := f.Run(io.Discard, io.Discard, run.FromScenarios(sc))
		if err != nil || results[0].Err != nil {
			t.Fatalf("Run: %v %v", err, results[0].Err)
		}
		return results[0]
	}

	packet := runOne(parse(t, 0.05), sc)
	flow := runOne(parse(t, 0.05, "-backend", "flow"), sc)
	if flow.Stats.Events >= packet.Stats.Events {
		t.Errorf("flow backend processed %d events, packet %d; override did not take",
			flow.Stats.Events, packet.Stats.Events)
	}

	// An explicit backend on the scenario wins over the flag's default.
	explicit := sc
	explicit.Backend = experiments.BackendFlow
	if kept := runOne(parse(t, 0.05), explicit); kept.Stats.Events != flow.Stats.Events {
		t.Errorf("explicit flow job processed %d events, -backend flow job %d; expected identical runs",
			kept.Stats.Events, flow.Stats.Events)
	}
}
