// Command benchjson runs the repository's benchmark suite and writes the
// results as a machine-readable JSON snapshot (BENCH_<date>.json by
// default), so performance regressions show up as diffs between dated
// snapshots instead of numbers lost in scrollback.
//
// Usage:
//
//	go run ./cmd/benchjson                        # full suite, 1x benchtime
//	go run ./cmd/benchjson -bench BatchFiguresSerial -benchtime 1x
//	go run ./cmd/benchjson -out BENCH_baseline.json
//	go run ./cmd/benchjson -compare BENCH_2026-08-05.json
//
// The default package list is the end-to-end suite at the module root plus
// the layer packages whose micro-benchmarks sit beside the code they measure:
// internal/sim (BenchmarkSchedulerChain, BenchmarkSchedulerFanout,
// BenchmarkCancelHeavy, BenchmarkTickerRearm), internal/trace
// (BenchmarkWriteCSV, BenchmarkWriteCSVWide,
// BenchmarkAppendFixed3), internal/flowsim (BenchmarkEpochSparse) and
// internal/topospec (BenchmarkSpecValidate100k).
//
// Each benchmark entry records ns/op, B/op, allocs/op and every custom
// metric the benchmarks report (Mevents/s, jain, losses/run, ...). For
// statistical comparisons between two snapshots, prefer benchstat on the
// raw output (see `make bench-json` notes in the Makefile).
//
// With -compare FILE the tool runs the suite, diffs the throughput metrics
// (Mevents/s, flowsec/s) against the committed snapshot, and exits nonzero
// when any benchmark regressed by more than -max-regress (default 5%) —
// the CI perf gate. Benchmark names are normalized by stripping Go's
// "-<GOMAXPROCS>" suffix, so snapshots taken on hosts with different core
// counts still line up. No snapshot file is written in compare mode unless
// -out is given explicitly.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line, parsed from `go test -bench` output.
type Result struct {
	// Name is the benchmark name including the -N procs suffix Go appends
	// (e.g. "BenchmarkBatchFiguresSerial-8").
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the wall-clock cost per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp come from -benchmem.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds the benchmark's custom b.ReportMetric values keyed by
	// unit (e.g. "Mevents/s", "jain", "losses/run").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the file schema.
type Snapshot struct {
	// Date is the snapshot day (YYYY-MM-DD, local time).
	Date string `json:"date"`
	// GoVersion and GoOSArch locate the toolchain and platform.
	GoVersion string `json:"go_version"`
	GoOSArch  string `json:"go_os_arch"`
	// Bench and Benchtime echo the selection flags.
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
	// Results holds one entry per benchmark, in output order.
	Results []Result `json:"results"`
}

func main() {
	bench := flag.String("bench", ".", "benchmark selection regexp (go test -bench)")
	benchtime := flag.String("benchtime", "1x", "per-benchmark budget (go test -benchtime)")
	count := flag.Int("count", 1, "repetitions per benchmark (go test -count)")
	out := flag.String("out", "", "output file (default BENCH_<date>.json)")
	pkg := flag.String("pkg", ". ./internal/sim ./internal/trace ./internal/flowsim ./internal/topospec", "space-separated packages to benchmark")
	compare := flag.String("compare", "", "previous snapshot to diff against instead of writing one; throughput regressions beyond -max-regress fail the command")
	maxRegress := flag.Float64("max-regress", 0.05, "largest tolerated fractional throughput drop per benchmark in -compare mode (0.05 = 5%)")
	flag.Parse()

	args := append([]string{"test"}, strings.Fields(*pkg)...)
	args = append(args,
		"-run", "^$",
		"-bench", *bench,
		"-benchmem",
		"-benchtime", *benchtime,
		"-count", strconv.Itoa(*count),
	)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: benchmarks failed: %v\n", err)
		os.Exit(1)
	}

	snap, err := parse(buf.Bytes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	snap.Bench = *bench
	snap.Benchtime = *benchtime
	if err := validate(snap); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: invalid snapshot: %v\n", err)
		os.Exit(1)
	}

	if *compare != "" {
		old, err := loadSnapshot(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		report := compareSnapshots(old, snap, *maxRegress)
		for _, line := range report.Lines {
			fmt.Println(line)
		}
		if n := len(report.Regressions); n > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d throughput regression(s) beyond %.0f%% vs %s\n",
				n, *maxRegress*100, *compare)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no throughput regression beyond %.0f%% vs %s (%d benchmarks compared)\n",
			*maxRegress*100, *compare, report.Compared)
		if *out == "" {
			return
		}
	}

	path := *out
	if path == "" {
		path = "BENCH_" + snap.Date + ".json"
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(snap.Results), path)
}

// parse extracts benchmark lines from `go test -bench` output. A line looks
// like:
//
//	BenchmarkName-8  3  123456 ns/op  42 B/op  7 allocs/op  1.5 Mevents/s
//
// i.e. name, iterations, then repeated <value> <unit> pairs.
func parse(output []byte) (*Snapshot, error) {
	snap := &Snapshot{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: strings.TrimSpace(goOutput("env", "GOVERSION")),
		GoOSArch:  strings.TrimSpace(goOutput("env", "GOOS")) + "/" + strings.TrimSpace(goOutput("env", "GOARCH")),
	}
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, and at least one value/unit pair.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = val
			case "B/op":
				r.BytesPerOp = val
			case "allocs/op":
				r.AllocsPerOp = val
			default:
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[unit] = val
			}
		}
		snap.Results = append(snap.Results, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

// validate enforces the snapshot schema the CI smoke checks: at least one
// benchmark, and every entry carries a name, positive iterations, and a
// positive ns/op.
func validate(s *Snapshot) error {
	if len(s.Results) == 0 {
		return fmt.Errorf("no benchmark results parsed")
	}
	for _, r := range s.Results {
		if r.Name == "" {
			return fmt.Errorf("entry with empty name")
		}
		if r.Iterations <= 0 {
			return fmt.Errorf("%s: non-positive iterations %d", r.Name, r.Iterations)
		}
		if r.NsPerOp <= 0 {
			return fmt.Errorf("%s: non-positive ns/op %g", r.Name, r.NsPerOp)
		}
	}
	return nil
}

// throughputUnits are the higher-is-better custom metrics -compare diffs:
// packet-engine event throughput and flow-engine simulated flow-seconds
// per wall second. Both units gate the command, each at its own multiple
// of -max-regress: Mevents/s at 1× and flowsec/s at 3× — the fluid
// benchmarks finish in milliseconds, so their readings jitter with
// scheduler noise, but a multi-fold collapse (an accidentally quadratic
// allocator, say) must still fail the gate. Drops between the base and the
// widened tolerance are reported as regressed without gating.
var (
	throughputUnits = []string{"Mevents/s", "flowsec/s"}
	gateTolMult     = map[string]float64{"Mevents/s": 1, "flowsec/s": 3}
)

// benchTolMult widens the gate for individual benchmarks whose readings
// are noisier than their unit's norm. The generated at-scale figures run
// one ~0.7s simulation per iteration — at -benchtime 3x their Mevents/s
// jitters ±8% with host scheduler noise — so they gate at 2× -max-regress:
// still tight enough to catch a real hot-path regression (the generators
// run at expansion time, so any slowdown they could cause is systematic),
// loose enough not to trip on jitter.
var benchTolMult = map[string]float64{
	"BenchmarkFigFairnessAtScale": 2,
	"BenchmarkFigChurnTail":       2,
}

// Regression is one gated metric that dropped beyond the tolerance.
type Regression struct {
	Name, Unit string
	Old, New   float64
}

// Report is the outcome of comparing a fresh run against a snapshot.
type Report struct {
	// Lines is the human-readable diff, one line per compared metric.
	Lines []string
	// Compared counts benchmarks present in both snapshots.
	Compared int
	// Regressions holds every metric whose drop exceeded the tolerance.
	Regressions []Regression
}

// loadSnapshot reads and decodes a previously written BENCH_*.json file.
func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &s, nil
}

// normalizeName strips the "-<GOMAXPROCS>" suffix Go appends to benchmark
// names, so a snapshot taken on an 8-core host compares against a run on a
// 4-core one. Names without a numeric suffix pass through unchanged.
func normalizeName(name string) string {
	i := strings.LastIndex(name, "-")
	if i <= 0 || i == len(name)-1 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// compareSnapshots diffs the throughput metrics of benchmarks present in
// both snapshots. Benchmarks or metrics present on only one side are
// reported but never gate — new benchmarks must not fail the perf gate the
// run that introduces them.
func compareSnapshots(old, cur *Snapshot, maxRegress float64) Report {
	var rep Report
	oldByName := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldByName[normalizeName(r.Name)] = r
	}
	for _, r := range cur.Results {
		name := normalizeName(r.Name)
		prev, ok := oldByName[name]
		if !ok {
			rep.Lines = append(rep.Lines, fmt.Sprintf("%-44s new benchmark (no baseline)", name))
			continue
		}
		rep.Compared++
		for _, unit := range throughputUnits {
			ov, oldHas := prev.Metrics[unit]
			nv, curHas := r.Metrics[unit]
			if !curHas {
				continue
			}
			if !oldHas {
				rep.Lines = append(rep.Lines, fmt.Sprintf("%-44s %-10s %8s -> %8.3f (no baseline)", name, unit, "-", nv))
				continue
			}
			delta := 0.0
			if ov > 0 {
				delta = (nv - ov) / ov
			}
			status := "ok"
			if ov > 0 && (ov-nv)/ov > maxRegress {
				tol := gateTolMult[unit]
				if tol <= 0 {
					tol = 1
				}
				if m := benchTolMult[name]; m > 0 {
					tol *= m
				}
				if (ov-nv)/ov > maxRegress*tol {
					status = "REGRESSED"
					rep.Regressions = append(rep.Regressions, Regression{Name: name, Unit: unit, Old: ov, New: nv})
				} else {
					status = fmt.Sprintf("regressed (within %.0f%% gate)", maxRegress*tol*100)
				}
			}
			rep.Lines = append(rep.Lines, fmt.Sprintf("%-44s %-10s %8.3f -> %8.3f  %+6.1f%%  %s",
				name, unit, ov, nv, delta*100, status))
		}
	}
	return rep
}

// goOutput runs `go <args>` and returns stdout (best-effort; empty on
// error).
func goOutput(args ...string) string {
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return ""
	}
	return string(out)
}
