// Command benchmark is the repository's performance benchmark: six workloads
// over both engines, end-to-end metrics measured from outside with tracing
// off, and one traced invocation per workload for the per-layer numbers.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark -seed 1                      # every workload, both halves
//	go run ./benchmark --workload pkt_fattree --seed 7 --seconds 10 --trace 0
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// envelope is the result file: where and how the numbers were taken, then
// one entry per workload.
type envelope struct {
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"nproc"`
	GoMaxProcs int              `json:"gomaxprocs"`
	CPUModel   string           `json:"cpu_model"`
	GitRev     string           `json:"git_rev"`
	Workloads  []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Workload string          `json:"workload"`
	EndToEnd *endToEndResult `json:"end_to_end,omitempty"`
	Layers   *layerResult    `json:"per_layer,omitempty"`
}

func newEnvelope(seed int64, seconds float64) envelope {
	return envelope{
		Seed:       seed,
		Seconds:    seconds,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GitRev:     gitRev(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// driverLine is the last line of standard output when one workload is
// selected: the contract the benchmark driver parses.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation. scale and microCalls exist for the package
// tests, which run a shrunken pass; the command always uses 1 and 1<<20.
type options struct {
	workloads  []workloadDef
	driver     bool // one workload selected: end with the driver's JSON line
	seed       int64
	seconds    float64
	trace      int // 0: end-to-end only, 1: per-layer only, -1: both
	out        string
	scale      float64
	microCalls int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and end with the driver's JSON line (default: all six)")
	seed := fs.Int64("seed", 1, "workload seed: the only argument that changes the work")
	seconds := fs.Float64("seconds", 8, "timed-run budget per workload; runs repeat until it is spent (at least 2)")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only, 1: traced per-layer metrics only, -1: both")
	out := fs.String("o", "benchmark/out/result.json", "result file; trace.json is written beside it")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < -1 || *trace > 1 || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	o := options{workloads: workloads, seed: *seed, seconds: *seconds, trace: *trace, out: *out, scale: 1, microCalls: 1 << 20}
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		o.workloads, o.driver = []workloadDef{w}, true
	}
	return execute(o, stdout, stderr)
}

func execute(o options, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	env := newEnvelope(o.seed, o.seconds)
	fmt.Fprintf(stdout, "benchmark: seed=%d seconds=%g %s nproc=%d GOMAXPROCS=%d cpu=%q rev=%s\n",
		env.Seed, env.Seconds, env.GoVersion, env.NumCPU, env.GoMaxProcs, env.CPUModel, env.GitRev)
	origin := time.Now()
	var spans []span
	attempted, failed := 0, 0
	for _, w := range o.workloads {
		wr := workloadResult{Workload: w.name}
		if o.trace != 1 {
			r, err := measureEndToEnd(w, o.seed, o.seconds, o.scale)
			if err != nil {
				return fail(err)
			}
			wr.EndToEnd = &r
			attempted, failed = attempted+r.Attempted, failed+r.Failed
			printEndToEnd(stdout, w, r)
		}
		if o.trace != 0 {
			tr := newTracer(w.name, origin)
			r, err := measureLayers(w, o.seed, o.scale, o.microCalls, tr)
			spans = append(spans, tr.spans...)
			if err != nil {
				return fail(err)
			}
			wr.Layers = &r
			attempted, failed = attempted+r.Attempted, failed+r.Failed
			printLayers(stdout, w, r)
		}
		env.Workloads = append(env.Workloads, wr)
	}

	if err := writeJSON(o.out, env); err != nil {
		return fail(err)
	}
	if o.trace != 0 {
		if err := writeJSON(filepath.Join(filepath.Dir(o.out), "trace.json"), map[string]any{"spans": spans}); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(stdout, "\nresult: %s  attempted=%d failed=%d failed_share=%g\n", o.out, attempted, failed, float64(failed)/float64(attempted))
	if o.driver {
		line := driverLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]driverValue)}
		wr := env.Workloads[0]
		if wr.EndToEnd != nil {
			for _, m := range endToEnd {
				line.Metrics[m.Name] = driverValue{wr.EndToEnd.Metrics[m.Name].Median, m.Unit}
			}
		}
		if wr.Layers != nil {
			for _, m := range perLayer {
				line.Metrics[m.Name] = driverValue{wr.Layers.Metrics[m.Name], m.Unit}
			}
		}
		data, err := json.Marshal(line)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func printEndToEnd(w io.Writer, wl workloadDef, r endToEndResult) {
	fmt.Fprintf(w, "\n== %s: end to end (tracing off; %d runs x %d ops, %d set-ups) digest=%s\n", wl.name, r.Runs, r.OpsPerRun, r.SetUps, r.Digest[:16])
	fmt.Fprintf(w, "  %-20s %14s %14s %14s %3s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	for _, m := range endToEnd {
		s := r.Metrics[m.Name]
		fmt.Fprintf(w, "  %-20s %14.6g %14.6g %14.6g %3d  %s\n", m.Name, s.Median, s.Q1, s.Q3, s.N, s.Unit)
	}
	fmt.Fprintf(w, "  %-20s %14g  (%d of %d ops)\n", "failed_share", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

func printLayers(w io.Writer, wl workloadDef, r layerResult) {
	fmt.Fprintf(w, "\n== %s: per layer (one traced invocation) digest=%s\n", wl.name, r.Digest[:16])
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-32s %16.6g  %s\n", m.Name, r.Metrics[m.Name], m.Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}
