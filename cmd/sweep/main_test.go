package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSweepUnknownParam(t *testing.T) {
	if err := mainRun([]string{"-param", "bogus"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown parameter accepted")
	}
}

func TestSweepK1Short(t *testing.T) {
	var stdout bytes.Buffer
	if err := mainRun([]string{"-param", "k1", "-duration", "5s"}, &stdout, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"sensitivity sweep over k1", "k1=0.5", "k1=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestSweepParallelMatchesSerial checks the table is identical for any
// worker count: sweep points are keyed by position, not completion order.
func TestSweepParallelMatchesSerial(t *testing.T) {
	tables := make(map[string]string)
	for _, par := range []string{"1", "8"} {
		var stdout bytes.Buffer
		args := []string{"-param", "qthresh", "-duration", "5s", "-parallel", par}
		if err := mainRun(args, &stdout, io.Discard); err != nil {
			t.Fatalf("run -parallel %s: %v", par, err)
		}
		tables[par] = stdout.String()
	}
	if tables["1"] != tables["8"] {
		t.Errorf("sweep table differs between -parallel 1 and 8:\n%s\n---\n%s", tables["1"], tables["8"])
	}
}

// TestSweepObsBundles checks -obs: every sweep point writes a
// label-prefixed telemetry bundle.
func TestSweepObsBundles(t *testing.T) {
	obsDir := filepath.Join(t.TempDir(), "obs")
	var stdout bytes.Buffer
	args := []string{"-param", "k1", "-duration", "4s", "-obs", obsDir}
	if err := mainRun(args, &stdout, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Point names like "fig5-corelite-startup/k1=0.5" sanitize to
	// "fig5-corelite-startup-k1-0.5." prefixes.
	for _, name := range []string{
		"fig5-corelite-startup-k1-0.5.events.jsonl",
		"fig5-corelite-startup-k1-0.5.trace.json",
		"fig5-corelite-startup-k1-4.series.csv",
	} {
		if st, err := os.Stat(filepath.Join(obsDir, name)); err != nil || st.Size() == 0 {
			t.Errorf("missing or empty bundle file %s (%v)", name, err)
		}
	}
	if !strings.Contains(stdout.String(), "telemetry bundles in") {
		t.Errorf("missing bundle pointer line:\n%s", stdout.String())
	}
}

// TestSweepFlowBackendRefusesPacketKnobs checks that the flow backend, which
// does not model the queue threshold, the link delay or K1, refuses to
// sweep them instead of printing a table of identical rows; the control
// epoch it does model still sweeps.
func TestSweepFlowBackendRefusesPacketKnobs(t *testing.T) {
	for _, param := range []string{"qthresh", "latency", "k1"} {
		err := mainRun([]string{"-backend", "flow", "-param", param, "-duration", "2s"}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-param "+param) || !strings.Contains(err.Error(), "-backend packet") {
			t.Errorf("-param %s on the flow backend: error %v, want a refusal naming it and -backend packet", param, err)
		}
	}
	var stdout bytes.Buffer
	if err := mainRun([]string{"-backend", "flow", "-param", "epoch", "-duration", "5s"}, &stdout, io.Discard); err != nil {
		t.Fatalf("-param epoch on the flow backend: %v", err)
	}
	if !strings.Contains(stdout.String(), "sensitivity sweep over epoch") {
		t.Errorf("epoch table missing:\n%s", stdout.String())
	}
}
