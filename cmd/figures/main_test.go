package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFigListFlag(t *testing.T) {
	var f figList
	if err := f.Set("5"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("6"); err != nil {
		t.Fatal(err)
	}
	if f.String() != "[5 6]" {
		t.Errorf("String() = %q", f.String())
	}
	if err := f.Set("five"); err == nil {
		t.Error("non-numeric figure accepted")
	}
}

func TestFiguresTable(t *testing.T) {
	figs := figures()
	if len(figs) != 12 {
		t.Fatalf("figures() lists %d entries, want 12 (Figures 3-10 + at-scale 11-14)", len(figs))
	}
	want := 3
	for _, f := range figs {
		if f.num != want {
			t.Errorf("figure order: got %d, want %d", f.num, want)
		}
		want++
		if f.scenario == nil || f.legend == "" {
			t.Errorf("figure %d incomplete", f.num)
		}
		if f.slug == "" {
			t.Errorf("figure %d has no output slug", f.num)
		}
	}
	// The at-scale figures name their outputs by slug, not figN.
	for _, f := range figs[8:] {
		if !strings.Contains(f.slug, "-at-scale-") && !strings.Contains(f.slug, "churn-tail-") {
			t.Errorf("figure %d slug %q is not an at-scale name", f.num, f.slug)
		}
	}
}

func TestRunSingleFigure(t *testing.T) {
	dir := t.TempDir()
	// Figure 5 is the cheapest (80 simulated seconds).
	if err := run([]string{"-outdir", dir, "-fig", "5"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig5.csv"))
	if err != nil {
		t.Fatalf("fig5.csv: %v", err)
	}
	head := strings.SplitN(string(data), "\n", 2)[0]
	if !strings.HasPrefix(head, "time_s,flow1") || !strings.Contains(head, "flow10") {
		t.Errorf("fig5.csv header = %q", head)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig6.csv")); err == nil {
		t.Error("fig6.csv written despite -fig 5 filter")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	err := run([]string{"-outdir", t.TempDir(), "-fig", "99"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "99") {
		t.Errorf("unknown figure accepted: %v", err)
	}
}

func TestRunWithGnuplot(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-outdir", dir, "-fig", "5", "-gnuplot"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig5.gp"))
	if err != nil {
		t.Fatalf("fig5.gp: %v", err)
	}
	gp := string(data)
	for _, want := range []string{"set output 'fig5.png'", "using 1:2", "title 'flow10'"} {
		if !strings.Contains(gp, want) {
			t.Errorf("gnuplot script missing %q", want)
		}
	}
}

// TestParallelMatchesSerialOutput is the CLI-level determinism guarantee:
// -parallel 1 and -parallel 8 produce byte-identical CSVs and stdout for
// the same figure subset (5 and 6 keep the test fast).
func TestParallelMatchesSerialOutput(t *testing.T) {
	outputs := make(map[string][]byte)
	stdouts := make(map[string]string)
	for _, par := range []string{"1", "8"} {
		dir := t.TempDir()
		var stdout bytes.Buffer
		args := []string{"-outdir", dir, "-fig", "5", "-fig", "6", "-parallel", par}
		if err := run(args, &stdout, io.Discard); err != nil {
			t.Fatalf("run -parallel %s: %v", par, err)
		}
		// Strip the temp-dir path so the two stdouts are comparable.
		stdouts[par] = strings.ReplaceAll(stdout.String(), dir, "")
		for _, name := range []string{"fig5.csv", "fig6.csv"} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("-parallel %s: %v", par, err)
			}
			outputs[par+"/"+name] = data
		}
	}
	for _, name := range []string{"fig5.csv", "fig6.csv"} {
		if !bytes.Equal(outputs["1/"+name], outputs["8/"+name]) {
			t.Errorf("%s differs between -parallel 1 and -parallel 8", name)
		}
	}
	if stdouts["1"] != stdouts["8"] {
		t.Errorf("stdout differs between -parallel 1 and -parallel 8:\n%s\n---\n%s", stdouts["1"], stdouts["8"])
	}
	if !strings.Contains(stdouts["1"], "figure  5") || !strings.Contains(stdouts["1"], "figure  6") {
		t.Errorf("stdout missing figure summaries:\n%s", stdouts["1"])
	}
}

// TestRunObsBundle checks -obs at the figures level: the figure CSV is
// byte-identical with telemetry on or off, and the figN.-prefixed bundle
// lands in the obs directory.
func TestRunObsBundle(t *testing.T) {
	plainDir := t.TempDir()
	if err := run([]string{"-outdir", plainDir, "-fig", "5"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	obsOut := t.TempDir()
	obsDir := filepath.Join(obsOut, "obs")
	var stdout bytes.Buffer
	if err := run([]string{"-outdir", obsOut, "-fig", "5", "-obs", obsDir}, &stdout, io.Discard); err != nil {
		t.Fatalf("observed run: %v", err)
	}
	plain, err := os.ReadFile(filepath.Join(plainDir, "fig5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	observed, err := os.ReadFile(filepath.Join(obsOut, "fig5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, observed) {
		t.Error("telemetry changed fig5.csv output")
	}
	for _, name := range []string{"fig5.events.jsonl", "fig5.series.csv", "fig5.counters.csv", "fig5.trace.json"} {
		if st, err := os.Stat(filepath.Join(obsDir, name)); err != nil || st.Size() == 0 {
			t.Errorf("missing or empty %s (%v)", name, err)
		}
	}
	if !strings.Contains(stdout.String(), "telemetry:") {
		t.Errorf("missing telemetry summary line:\n%s", stdout.String())
	}
}
