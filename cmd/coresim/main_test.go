package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestParseWeights(t *testing.T) {
	got, err := parseWeights("1:1, 2:2.5 ,5:3")
	if err != nil {
		t.Fatalf("parseWeights: %v", err)
	}
	if got[1] != 1 || got[2] != 2.5 || got[5] != 3 {
		t.Errorf("parseWeights = %v", got)
	}
	for _, bad := range []string{"1", "x:1", "1:y", "1:2:3", "1:-3", "2:0", "1:NaN"} {
		if _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights(%q) succeeded", bad)
		}
	}
	// Empty entries are skipped.
	got, err = parseWeights("1:1,,")
	if err != nil || len(got) != 1 {
		t.Errorf("parseWeights with empties = %v, %v", got, err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "run")
	var sb strings.Builder
	err := run([]string{
		"-flows", "2", "-dumbbell", "-weights", "1:1,2:2",
		"-duration", "5s", "-out", prefix,
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "scenario coresim (corelite)") {
		t.Errorf("missing summary:\n%s", out)
	}
	for _, kind := range []string{"allowed", "received", "cumulative"} {
		path := prefix + "-" + kind + ".csv"
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing %s: %v", path, err)
		}
		if !strings.HasPrefix(string(data), "time_s,flow1,flow2") {
			t.Errorf("%s header wrong", path)
		}
	}
}

// TestRunSeedReplicas checks the -runs batch: per-run summaries in run
// order, suffixed CSVs, derived seeds, and identical output for any
// -parallel value.
func TestRunSeedReplicas(t *testing.T) {
	outs := make(map[string]string)
	csvs := make(map[string][]byte)
	for _, par := range []string{"1", "4"} {
		dir := t.TempDir()
		prefix := filepath.Join(dir, "batch")
		var sb strings.Builder
		err := run([]string{
			"-flows", "2", "-dumbbell", "-duration", "4s",
			"-runs", "3", "-parallel", par, "-out", prefix,
		}, &sb)
		if err != nil {
			t.Fatalf("run -parallel %s: %v", par, err)
		}
		// Strip the temp-dir paths so outputs are comparable.
		outs[par] = strings.ReplaceAll(sb.String(), dir, "")
		for i := 1; i <= 3; i++ {
			path := fmt.Sprintf("%s-r%d-allowed.csv", prefix, i)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing replica CSV: %v", err)
			}
			csvs[par+strconv.Itoa(i)] = data
		}
	}
	if outs["1"] != outs["4"] {
		t.Errorf("replica output differs between -parallel 1 and 4:\n%s\n---\n%s", outs["1"], outs["4"])
	}
	for i := 1; i <= 3; i++ {
		if !bytes.Equal(csvs["1"+strconv.Itoa(i)], csvs["4"+strconv.Itoa(i)]) {
			t.Errorf("replica %d CSV differs between -parallel 1 and 4", i)
		}
	}
	// Replicas explore different seeds: r1 keeps the base seed (1),
	// r2/r3 derive new ones; the per-run lines print them.
	if !strings.Contains(outs["1"], "run coresim-r1 (seed 1)") {
		t.Errorf("replica 1 lost the base seed:\n%s", outs["1"])
	}
	seeds := make(map[string]bool)
	for _, line := range strings.Split(outs["1"], "\n") {
		if strings.HasPrefix(line, "run coresim-r") {
			open := strings.Index(line, "(seed ")
			close := strings.Index(line, ")")
			if open < 0 || close < open {
				t.Fatalf("malformed run line %q", line)
			}
			seeds[line[open:close]] = true
		}
	}
	if len(seeds) != 3 {
		t.Errorf("want 3 distinct derived seeds, got %d:\n%s", len(seeds), outs["1"])
	}
}

func TestRunTraceRequiresSingleRun(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-runs", "2", "-trace", "x.tr"}, &sb); err == nil {
		t.Error("-trace with -runs 2 accepted")
	}
	if err := run([]string{"-runs", "0"}, &sb); err == nil {
		t.Error("-runs 0 accepted")
	}
}

func TestRunCSFQAndErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scheme", "csfq", "-flows", "1", "-dumbbell", "-duration", "2s"}, &sb); err != nil {
		t.Fatalf("csfq run: %v", err)
	}
	if err := run([]string{"-scheme", "nonsense"}, &sb); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run([]string{"-weights", "garbage"}, &sb); err == nil {
		t.Error("bad weights accepted")
	}
	if err := run([]string{"-topo", "/does/not/exist"}, &sb); err == nil {
		t.Error("missing topo file accepted")
	}
	// -weights is refused at parse time when it would be dropped or
	// rejected only after the model is built.
	for _, args := range [][]string{
		{"-flows", "2", "-dumbbell", "-weights", "99:3"},
		{"-flows", "2", "-dumbbell", "-weights", "0:3"},
		{"-chain-cores", "10", "-chain-flows", "3", "-backend", "flow", "-weights", "4:2"},
		{"-topo", "fattree:k=4,flows=4", "-weights", "1:5"},
		{"-weights", "1:-3"},
	} {
		if err := run(append(args, "-duration", "1s"), &sb); err == nil || !strings.Contains(err.Error(), "weight") {
			t.Errorf("%v: error %v, want a -weights refusal", args, err)
		}
	}
}

func TestRunWithTopoAndTrace(t *testing.T) {
	dir := t.TempDir()
	topo := filepath.Join(dir, "t.topo")
	spec := `
node A core
node B core
duplex A B 4Mbps 5ms
node in1 edge
node out1 edge
duplex in1 A 40Mbps 1ms
duplex B out1 40Mbps 1ms
flow 1 in1 out1 weight=2
`
	if err := os.WriteFile(topo, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "out.tr")
	var sb strings.Builder
	if err := run([]string{"-topo", topo, "-duration", "3s", "-trace", tracePath}, &sb); err != nil {
		t.Fatalf("run with topo: %v", err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if !strings.Contains(string(data), "in1->A") {
		t.Errorf("trace content unexpected:\n%.200s", data)
	}
}

// TestRunObsBundle checks the -obs flag: a single invocation emits the full
// telemetry bundle (JSONL events, sampled series, Chrome trace) plus the
// telemetry summary line, and -cpuprofile/-memprofile write profiles.
func TestRunObsBundle(t *testing.T) {
	dir := t.TempDir()
	obsDir := filepath.Join(dir, "obs")
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var sb strings.Builder
	err := run([]string{
		"-flows", "2", "-dumbbell", "-weights", "1:1,2:2", "-duration", "6s",
		"-obs", obsDir, "-cpuprofile", cpu, "-memprofile", mem,
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "telemetry:") {
		t.Errorf("missing telemetry summary line:\n%s", sb.String())
	}
	for _, name := range []string{"events.jsonl", "events.csv", "series.csv", "counters.csv", "trace.json"} {
		data, err := os.ReadFile(filepath.Join(obsDir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	jsonl, _ := os.ReadFile(filepath.Join(obsDir, "events.jsonl"))
	if !strings.HasPrefix(string(jsonl), `{"t":`) {
		t.Errorf("events.jsonl does not start with a JSON event: %.80s", jsonl)
	}
	traceJSON, _ := os.ReadFile(filepath.Join(obsDir, "trace.json"))
	if !strings.Contains(string(traceJSON), `"traceEvents"`) {
		t.Errorf("trace.json is not a Chrome trace: %.80s", traceJSON)
	}
	series, _ := os.ReadFile(filepath.Join(obsDir, "series.csv"))
	if !strings.HasPrefix(string(series), "time_s,") || !strings.Contains(string(series), "queue/") {
		t.Errorf("series.csv header unexpected: %.120s", series)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", p, err)
		}
	}
}

// TestRunObsReplicas checks that -obs with -runs N writes one rN.-prefixed
// bundle per replica.
func TestRunObsReplicas(t *testing.T) {
	obsDir := filepath.Join(t.TempDir(), "obs")
	var sb strings.Builder
	err := run([]string{
		"-flows", "2", "-dumbbell", "-duration", "4s",
		"-runs", "2", "-obs", obsDir,
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("r%d.events.jsonl", i)
		if _, err := os.Stat(filepath.Join(obsDir, name)); err != nil {
			t.Errorf("missing replica bundle %s: %v", name, err)
		}
	}
}

// TestHugeInputsRefusedUpFront drives the size pre-flight through the flags:
// a chain, a generated topology or a sample grid too large to allocate fails
// with one error line before the run starts.
func TestHugeInputsRefusedUpFront(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-chain-cores", "300000000", "-chain-flows", "1", "-duration", "1s"}, "299999999 links, over the limit of"},
		{[]string{"-chain-cores", "10", "-chain-flows", "20000000", "-duration", "1s"}, "20000000 flows, over the limit of"},
		{[]string{"-topo", "fattree:k=2000,flows=4", "-duration", "2s"}, "8000000016 links, over the limit of"},
		{[]string{"-topo", "fattree:k=8,flows=8", "-duration", "2s", "-sample", "1ns"}, "series cells, over the limit of"},
	} {
		var sb strings.Builder
		err := run(append([]string{"-backend", "flow", "-summary=false"}, tc.args...), &sb)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%v: error %v, want one line containing %q", tc.args, err, tc.want)
		}
	}
}
