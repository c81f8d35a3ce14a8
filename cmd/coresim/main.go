// Command coresim runs a Corelite or CSFQ scenario on the paper's
// evaluation topology (or a single-bottleneck dumbbell) and emits the
// measured series as CSV plus a per-flow summary. With -runs N it executes
// N seed replicas of the scenario on a worker pool (each replica gets a
// deterministically derived seed) and reports them in run order.
//
// Examples:
//
//	coresim -scheme corelite -flows 10 -duration 80s -summary
//	coresim -scheme csfq -flows 2 -dumbbell -weights 1:1,2:2 -out run
//	coresim -flows 10 -runs 8 -parallel 4 -out batch
//	coresim -topo fattree:k=8,flows=48 -traffic heavytail:unresp=0.1,urate=350 -backend flow -check
//	coresim -topo nclouds:n=3,remark=1 -duration 120s -summary
//
// With -out PREFIX the tool writes PREFIX-allowed.csv,
// PREFIX-received.csv and PREFIX-cumulative.csv (PREFIX-rN-… per replica
// when -runs > 1).
//
// With -obs DIR each run additionally captures control-plane telemetry and
// writes events.jsonl, events.csv, series.csv, counters.csv, hist.jsonl,
// hist.csv, perf.csv and trace.json into DIR (rN.-prefixed per replica);
// trace.json loads in chrome://tracing or Perfetto. -obs works on both
// backends: the packet engine contributes queueing-delay and feedback-RTT
// histograms plus the event-loop profile (perf.csv), the flow backend
// contributes rate/alpha/fn gauge series, epoch counters and water-filling
// solve-time histograms. -cpuprofile and -memprofile write host pprof
// profiles on either backend (the profile covers the whole process — on
// the packet backend it is dominated by the event loop, on the flow
// backend by the allocator solves).
//
// With -progress the tool prints one aggregated live-progress line to
// stderr every 2 seconds (runs done/running, simulated seconds and rate,
// throughput, active flows, ETA) — useful for long runs and -runs batches.
//
// With -check each run carries the runtime invariant checker (packet/byte
// conservation, queue bounds, marker accounting, fairness residual vs the
// max-min oracle); any violation is printed and fails the command.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	corelite "repro"
	"repro/internal/topospec"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coresim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("coresim", flag.ContinueOnError)
	var (
		scheme   = fs.String("scheme", "corelite", "scheme: corelite or csfq")
		backend  = fs.String("backend", "packet", "execution engine: packet (discrete-event reference) or flow (fluid rates, orders of magnitude faster)")
		flows    = fs.Int("flows", 10, "number of flows (1-20 on the paper topology)")
		duration = fs.Duration("duration", 80*time.Second, "simulated duration")
		seed     = fs.Int64("seed", 1, "random seed")
		weights  = fs.String("weights", "", "per-flow weights, e.g. 1:1,2:2,5:3 (default weight 1)")
		defaultW = fs.Float64("default-weight", 1, "weight for flows not listed in -weights")
		dumbbell = fs.Bool("dumbbell", false, "use a single-bottleneck dumbbell instead of the paper topology")
		topo     = fs.String("topo", "", "topology spec file, or a generator spec like fattree:k=8,flows=48 / nclouds:n=3,remark=1 / mesh:nodes=8 (overrides -flows/-dumbbell/-weights)")
		traffic  = fs.String("traffic", "", "generated workload over a generated topology: uniform / heavytail:unresp=0.1,urate=350 / churn:heavy=0.25 (requires a generator -topo)")
		sample   = fs.Duration("sample", time.Second, "measurement window")
		out      = fs.String("out", "", "output file prefix for CSV series (empty = no CSV)")
		traceOut = fs.String("trace", "", "write an ns-2-style packet event trace to this file")
		summary  = fs.Bool("summary", true, "print the per-flow summary")
		runs     = fs.Int("runs", 1, "seed replicas of the scenario (derived per-run seeds)")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent replicas (1 = serial)")
		obsDir   = fs.String("obs", "", "directory for control-plane telemetry (events JSONL/CSV, sampled series, histograms, engine perf profile, Chrome trace)")
		progress = fs.Bool("progress", false, "print aggregated live progress (sim-time rate, throughput, active flows, ETA) to stderr every 2s")
		check    = fs.Bool("check", false, "attach the runtime invariant checker (conservation, queue bounds, marker accounting, fairness residual); violations fail the run")
		checkTol = fs.Float64("check-tol", 0.05, "fairness-residual tolerance for -check")
		ssThresh = fs.Float64("ss-thresh", 0, "slow-start exit threshold in pkt/s (0 = the paper's 32); raise it on fat fabrics so flows reach large fair shares exponentially instead of by linear increase")
		cpuProf  = fs.String("cpuprofile", "", "write a host CPU profile of the simulation to this file")
		memProf  = fs.String("memprofile", "", "write a post-run heap profile to this file")

		chainCores = fs.Int("chain-cores", 0, "generate a synthetic chain of N core nodes instead of a built-in topology (flow backend only)")
		chainFlows = fs.Int("chain-flows", 0, "flows crossing the generated chain (default -flows)")
		chainCap   = fs.Float64("chain-capacity", 0, "per-link capacity of the generated chain in pkt/s (0 = the paper's 500)")
		chainSpan  = fs.Int("chain-span", 0, "max consecutive links one chain flow crosses (0 = 4)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs %d: want at least 1", *runs)
	}
	if *traceOut != "" && *runs > 1 {
		return fmt.Errorf("-trace supports a single run (got -runs %d)", *runs)
	}

	sc := corelite.Scenario{
		Name:          "coresim",
		Duration:      *duration,
		Seed:          *seed,
		NumFlows:      *flows,
		DefaultWeight: *defaultW,
		Dumbbell:      *dumbbell,
		SampleWindow:  *sample,
	}
	switch strings.ToLower(*scheme) {
	case "corelite":
		sc.Scheme = corelite.SchemeCorelite
	case "csfq":
		sc.Scheme = corelite.SchemeCSFQ
	default:
		return fmt.Errorf("unknown scheme %q (want corelite or csfq)", *scheme)
	}
	be, err := corelite.ParseBackend(*backend)
	if err != nil {
		return err
	}
	sc.Backend = be
	if *ssThresh > 0 {
		ec := corelite.DefaultEdgeConfig()
		ec.Adapt.SSThresh = *ssThresh
		sc.EdgeConfig = ec
		cec := corelite.DefaultCSFQEdgeConfig()
		cec.Adapt.SSThresh = *ssThresh
		sc.CSFQEdgeConfig = cec
	}
	if *chainCores > 0 {
		nf := *chainFlows
		if nf <= 0 {
			nf = *flows
		}
		sc.Chain = &corelite.ChainTopology{
			Cores:       *chainCores,
			Flows:       nf,
			CapacityPPS: *chainCap,
			MaxSpan:     *chainSpan,
		}
		sc.NumFlows = 0
	}
	if *weights != "" {
		w, err := parseWeights(*weights)
		if err != nil {
			return err
		}
		sc.Weights = w
	}
	switch {
	case *topo != "" && corelite.IsTopoGenSpec(*topo):
		gen, err := corelite.ParseGenerate(*topo, *traffic)
		if err != nil {
			return err
		}
		sc.Generate = gen
		sc.NumFlows = 0
	case *topo != "":
		if *traffic != "" {
			return fmt.Errorf("-traffic needs a generator -topo (fattree/nclouds/mesh), not a spec file")
		}
		spec, err := topospec.ParseFile(*topo)
		if err != nil {
			return err
		}
		sc.Spec = spec
	case *traffic != "":
		return fmt.Errorf("-traffic needs a generator -topo (fattree/nclouds/mesh)")
	}

	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		traceFile = f
		sc.Tracer = &corelite.WriterTracer{W: traceFile}
	}

	// One job per seed replica. The first replica runs the scenario
	// exactly as specified; later replicas derive decorrelated seeds so
	// a batch explores seed sensitivity reproducibly.
	jobs := make([]corelite.Job, *runs)
	for i := range jobs {
		rsc := sc
		name := sc.Name
		if *runs > 1 {
			name = fmt.Sprintf("%s-r%d", sc.Name, i+1)
			rsc.Name = name
			if i > 0 {
				rsc.Seed = corelite.DeriveSeed(*seed, name)
			}
		}
		if *obsDir != "" {
			rsc.Obs = corelite.NewObsRegistry()
		}
		if *check {
			rsc.Check = corelite.NewInvariantChecker(corelite.InvariantConfig{FairnessTol: *checkTol})
		}
		jobs[i] = corelite.Job{Name: name, Scenario: rsc}
	}

	stopCPU, err := corelite.StartCPUProfile(*cpuProf)
	if err != nil {
		return err
	}
	poolCfg := corelite.PoolConfig{Workers: *parallel}
	if *progress {
		poolCfg.ProgressEvery = 2 * time.Second
		poolCfg.OnProgress = func(u corelite.ProgressUpdate) { fmt.Fprintln(os.Stderr, u) }
	}
	results, err := corelite.NewPool(poolCfg).Execute(context.Background(), jobs)
	if stopErr := stopCPU(); stopErr != nil && err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	if *memProf != "" {
		if err := corelite.WriteHeapProfile(*memProf); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *memProf)
	}
	if *cpuProf != "" {
		fmt.Fprintln(stdout, "wrote", *cpuProf)
	}
	if traceFile != nil {
		fmt.Fprintln(stdout, "wrote", *traceOut)
	}
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("run %s: %w", r.Job.Name, r.Err)
		}
		if *runs > 1 {
			fmt.Fprintf(stdout, "run %s (seed %d): %d events, %d losses\n",
				r.Job.Name, jobs[i].Scenario.Seed, r.Stats.Events, r.Stats.Dropped)
		}
		if be == corelite.BackendFlow {
			// The fluid engine's scale metric: simulated flow-seconds per
			// wall second.
			simSec := jobs[i].Scenario.Duration.Seconds()
			wall := r.Stats.Wall.Seconds()
			if wall > 0 {
				fmt.Fprintf(stdout, "flow backend: %d flows × %.0fs simulated in %v (%.3g flow·s/s, %d events)\n",
					len(r.Output.Flows), simSec, r.Stats.Wall.Round(time.Millisecond),
					float64(len(r.Output.Flows))*simSec/wall, r.Stats.Events)
			}
		}
		if *check {
			if err := reportViolations(stdout, r.Job.Name, r.Output.Violations, r.Output.InvariantChecks); err != nil {
				return err
			}
		}
		if *summary {
			if err := corelite.WriteSummary(stdout, r.Output); err != nil {
				return err
			}
		}
		if *out != "" {
			prefix := *out
			if *runs > 1 {
				prefix = fmt.Sprintf("%s-r%d", *out, i+1)
			}
			kinds := []trace.SeriesKind{
				corelite.SeriesAllowed, corelite.SeriesReceived, corelite.SeriesCumulative,
			}
			for _, kind := range kinds {
				path := fmt.Sprintf("%s-%s.csv", prefix, kind)
				if err := writeCSVFile(path, r.Output, kind); err != nil {
					return err
				}
				fmt.Fprintln(stdout, "wrote", path)
			}
		}
		if *obsDir != "" {
			prefix := ""
			if *runs > 1 {
				prefix = fmt.Sprintf("r%d.", i+1)
			}
			paths, err := r.Obs.WriteDir(*obsDir, prefix)
			if err != nil {
				return err
			}
			for _, p := range paths {
				fmt.Fprintln(stdout, "wrote", p)
			}
			if tel := r.Stats.Telemetry; tel != nil {
				fmt.Fprintf(stdout, "telemetry: %d control events, %d samples, %d congestion epochs, %d feedback, %d drops, peak queue %.0f\n",
					tel.Events, tel.Samples, tel.CongestionEpochs, tel.FeedbackSent, tel.Drops, tel.PeakQueue)
			}
		}
	}
	return nil
}

// reportViolations prints the invariant-checker verdict for one run and
// returns an error when any invariant was breached.
func reportViolations(stdout io.Writer, name string, violations []corelite.InvariantViolation, checks int64) error {
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "check %s: %d invariant checks passed\n", name, checks)
		return nil
	}
	for _, v := range violations {
		fmt.Fprintf(stdout, "check %s: VIOLATION %s\n", name, v)
	}
	return fmt.Errorf("run %s: %d invariant violation(s)", name, len(violations))
}

func writeCSVFile(path string, res *corelite.Result, kind trace.SeriesKind) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := corelite.WriteCSV(f, res, kind); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// parseWeights parses "1:1,2:2,5:3" into a weight map.
func parseWeights(s string) (map[int]float64, error) {
	out := make(map[int]float64)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad weight entry %q (want flow:weight)", part)
		}
		idx, err := strconv.Atoi(strings.TrimSpace(kv[0]))
		if err != nil {
			return nil, fmt.Errorf("bad flow index %q: %w", kv[0], err)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q: %w", kv[1], err)
		}
		out[idx] = w
	}
	return out, nil
}
