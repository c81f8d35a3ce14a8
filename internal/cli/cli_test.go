package cli

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/invariant"
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
	r := run.Result{Output: &experiments.Result{Violations: []invariant.Violation{{Site: "link X", Detail: "over capacity"}}}}
	var out bytes.Buffer
	err := f.Report(&out, r, "", " x", "")
	if err == nil || err.Error() != "1 invariant violation(s)" {
		t.Errorf("error %v", err)
	}
	if !strings.HasPrefix(out.String(), "check x: VIOLATION ") || !strings.Contains(out.String(), "link X") {
		t.Errorf("violation line %q", out.String())
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
