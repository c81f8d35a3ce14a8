package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuantiles(t *testing.T) {
	for _, tc := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 1.25, 1.5, 1.75},
		{[]float64{3, 1, 2}, 1.5, 2, 2.5},
		{[]float64{4, 1, 3, 2, 5}, 2, 3, 4},
	} {
		s := summarise(tc.v, "s")
		if s.Q1 != tc.q1 || s.Median != tc.med || s.Q3 != tc.q3 || s.N != len(tc.v) {
			t.Errorf("summarise(%v) = %+v, want q1=%g median=%g q3=%g", tc.v, s, tc.q1, tc.med, tc.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no data should be NaN")
	}
	if got := (stat{Median: 10, Q1: 9, Q3: 11.5}).spread(); got != 0.25 {
		t.Errorf("spread = %g, want 0.25", got)
	}
}

func TestTracerNestsAndSelfTime(t *testing.T) {
	tr := newTracer("w", time.Now())
	root := tr.start("root")
	a := tr.start("a")
	time.Sleep(time.Millisecond)
	tr.end(a)
	b := tr.start("b")
	c := tr.start("a")
	tr.end(c)
	tr.end(b)
	tr.end(root)
	checkSpansNest(t, tr.spans)
	if tr.spans[a-1].Parent != root || tr.spans[c-1].Parent != b || tr.spans[root-1].Parent != 0 {
		t.Errorf("wrong parents: %+v", tr.spans)
	}
	if got, want := tr.total("a"), tr.spans[a-1].seconds()+tr.spans[c-1].seconds(); got != want {
		t.Errorf("total(a) = %g, want %g", got, want)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.start("ignored"))
}

// selfSeconds is a span's duration minus the part its children cover.
func selfSeconds(spans []span, id int) float64 {
	self := spans[id-1].seconds()
	for _, s := range spans {
		if s.Parent == id {
			self -= s.seconds()
		}
	}
	return self
}

// checkSpansNest asserts every span lies inside its parent and has
// non-negative self time.
func checkSpansNest(t *testing.T, spans []span) {
	t.Helper()
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			}
		}
		if self := selfSeconds(spans, s.ID); self < 0 {
			t.Errorf("span %d (%s) has negative self time %g", s.ID, s.Name, self)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestAgrees keeps BENCHMARK.json and the program's tables in step
// and inside the limits the benchmark driver enforces.
func TestManifestAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type manifestMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []manifestMetric `json:"end_to_end"`
		PerLayer []manifestMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if got := strings.Join(manifest.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(manifest.Paths) != 1 || manifest.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", manifest.Paths)
	}
	if manifest.RunSeconds < 1 || manifest.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", manifest.RunSeconds)
	}

	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(manifest.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	for i, w := range workloads {
		mw := manifest.Workloads[i]
		if mw.Name != w.name || mw.Why != w.why {
			t.Errorf("workload %d: manifest (%q, %q), program (%q, %q)", i, mw.Name, mw.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.name)
		}
	}

	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, def := range want {
			m := got[i]
			if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, m, def)
			}
			if !nameRE.MatchString(def.Name) || seen[def.Name] {
				t.Errorf("metric name %q is malformed or repeated", def.Name)
			}
			seen[def.Name] = true
			if !unitRE.MatchString(def.Unit) {
				t.Errorf("metric %q: malformed unit %q", def.Name, def.Unit)
			}
			if def.Better != "lower" && def.Better != "higher" {
				t.Errorf("metric %q: better = %q", def.Name, def.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != def.Bound || def.Bound <= 0 || def.Bound > 0.25):
				t.Errorf("metric %q: bound must be in (0, 0.25] and agree (program %g)", def.Name, def.Bound)
			case !bounded && (m.Bound != nil || def.Bound != 0):
				t.Errorf("per-layer metric %q must have no bound", def.Name)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd, true)
	check("per_layer", manifest.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
}

// TestScaledPass runs every workload end to end at a twenty-fifth of its size
// (the chain horizons fall under the checker's 40 s minimum steady window,
// so an unconverged 32 s run is not judged for fairness) — both halves,
// through the same code path as the command — and checks the driver line,
// the result file and the trace.
func TestScaledPass(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			o := options{
				workloads: []workloadDef{w}, driver: true, seed: 3, seconds: 0.01, trace: -1,
				out: filepath.Join(dir, "result.json"), scale: 0.04, microCalls: 1 << 15,
			}
			if code := execute(o, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
			}

			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if len(line) != 4 {
				t.Errorf("driver line has keys %v, want exactly correct/attempted/failed/metrics", line)
			}
			var dl driverLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &dl); err != nil {
				t.Fatal(err)
			}
			if !dl.Correct || dl.Failed != 0 || dl.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", dl.Correct, dl.Attempted, dl.Failed)
			}
			if want := len(endToEnd) + len(perLayer); len(dl.Metrics) != want {
				t.Errorf("driver line carries %d metrics, want %d", len(dl.Metrics), want)
			}
			for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				v, ok := dl.Metrics[def.Name]
				if !ok {
					t.Errorf("metric %s not emitted", def.Name)
					continue
				}
				if v.Unit != def.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s = %v %q, want a finite value in %q", def.Name, v.Value, v.Unit, def.Unit)
				}
			}
			for _, def := range endToEnd {
				if v := dl.Metrics[def.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %g, must never be 0", def.Name, v)
				}
				if n := strings.Count(stdout.String(), "\n  "+def.Name+" "); n != 1 {
					t.Errorf("end-to-end metric %s printed %d times", def.Name, n)
				}
			}
			for _, def := range perLayer {
				if n := strings.Count(stdout.String(), "\n  "+def.Name+" "); n != 1 {
					t.Errorf("per-layer metric %s printed %d times", def.Name, n)
				}
			}

			env, err := readEnvelope(o.out)
			if err != nil {
				t.Fatal(err)
			}
			if env.Seed != 3 || env.GoVersion == "" || env.NumCPU < 1 || env.GoMaxProcs < 1 || env.CPUModel == "" || env.GitRev == "" {
				t.Errorf("incomplete envelope: %+v", env)
			}
			e2e, layers := env.Workloads[0].EndToEnd, env.Workloads[0].Layers
			if e2e.Runs < minTimedRuns || e2e.Digest != layers.Digest {
				t.Errorf("runs=%d, end-to-end digest %s, traced digest %s", e2e.Runs, e2e.Digest, layers.Digest)
			}
			for name := range layers.Metrics {
				if _, ok := dl.Metrics[name]; !ok {
					t.Errorf("traced run produced undeclared metric %s", name)
				}
			}
			if w.flow != (layers.Metrics["flowsim.events"] > 0) || w.flow == (layers.Metrics["sim.loop_link_tx_events"] > 0) {
				t.Errorf("flow=%v but flowsim.events=%g, sim.loop_link_tx_events=%g", w.flow,
					layers.Metrics["flowsim.events"], layers.Metrics["sim.loop_link_tx_events"])
			}

			data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatal(err)
			}
			checkSpansNest(t, trace.Spans)
			names := make(map[string]bool)
			for _, s := range trace.Spans {
				names[s.Name] = true
				if s.Workload != w.name {
					t.Errorf("span %d belongs to %q", s.ID, s.Workload)
				}
			}
			want := []string{"experiments.validate", "experiments.run", "trace.write_csv", "micro.netem.hop"}
			if w.flow {
				want = append(want, "flowsim.model_build", "flowsim.run", "flowsim.full_solve_once")
			}
			for _, name := range want {
				if !names[name] {
					t.Errorf("no %s span", name)
				}
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "simpkts_per_s", Unit: "pkt/s", Better: "higher", Bound: 0.1}
	tight := func(m float64) stat { return stat{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 5} }
	wide := func(m float64) stat { return stat{Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 5} }
	for _, tc := range []struct {
		def  metricDef
		a, b stat
		want string
	}{
		{lower, tight(1), tight(1.05), verdictOK},
		{lower, tight(1), tight(1.2), verdictRegression},
		{lower, tight(1), tight(0.8), verdictBetter},
		{lower, tight(1), wide(1.05), verdictUnresolved},
		{lower, wide(1), wide(1.2), verdictRegression},
		{higher, tight(1), tight(0.8), verdictRegression},
		{higher, tight(1), tight(1.2), verdictBetter},
	} {
		if _, got := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%s, %g -> %g) = %s, want %s", tc.def.Name, tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, wall float64, digest string, events float64) string {
		metrics := make(map[string]stat)
		for _, def := range endToEnd {
			metrics[def.Name] = stat{Median: 1, Q1: 1, Q3: 1, N: 3, Unit: def.Unit}
		}
		metrics["wall_s"] = stat{Median: wall, Q1: wall, Q3: wall, N: 3, Unit: "s"}
		env := envelope{Seed: 1, Workloads: []workloadResult{{
			Workload: "pkt_fattree",
			EndToEnd: &endToEndResult{Digest: digest, Metrics: metrics},
			Layers:   &layerResult{Digest: digest, Metrics: map[string]float64{"sim.events": events}},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, env); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("a.json", 1, "d1", 100)
	for _, tc := range []struct {
		name string
		path string
		want int
		says string
	}{
		{"same", mk("same.json", 1.02, "d1", 100), 0, "no regression"},
		{"slower", mk("slower.json", 1.5, "d1", 100), 1, verdictRegression},
		{"digest", mk("digest.json", 1, "d2", 100), 1, "DIFFERS"},
		{"count", mk("count.json", 1, "d1", 101), 1, "count sim.events differs"},
	} {
		var stdout, stderr bytes.Buffer
		if got := compareFiles(base, tc.path, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: exit code %d, want %d\n%s%s", tc.name, got, tc.want, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.says) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.says, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-compare", base}, &stdout, &stderr); got != 2 {
		t.Errorf("-compare with one file: exit code %d, want 2", got)
	}
}
