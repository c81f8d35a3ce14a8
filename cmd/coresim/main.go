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
// With -runs N, -obs bundles are rN.-prefixed. The flags every command
// shares (-seed -backend -parallel -obs -progress -check -check-tol
// -duration -topo -traffic -cpuprofile -memprofile) are documented in
// internal/cli. On the packet backend -obs adds queueing-delay and
// feedback-RTT histograms and the event-loop profile (perf.csv); on the flow
// backend rate/alpha/fn gauge series, epoch counters and solve-time
// histograms.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	corelite "repro"
	"repro/internal/cli"
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
	var f cli.Flags
	f.RegisterPool(fs, 0.05)
	f.RegisterTopology(fs)
	var (
		scheme   = fs.String("scheme", "corelite", "scheme: corelite or csfq")
		flows    = fs.Int("flows", 10, "number of flows (1-20 on the paper topology)")
		weights  = fs.String("weights", "", "per-flow weights, e.g. 1:1,2:2,5:3 (default weight 1; not with -topo, whose spec carries its own)")
		defaultW = fs.Float64("default-weight", 1, "weight for flows not listed in -weights")
		dumbbell = fs.Bool("dumbbell", false, "use a single-bottleneck dumbbell instead of the paper topology")
		sample   = fs.Duration("sample", time.Second, "measurement window")
		out      = fs.String("out", "", "output file prefix for CSV series (empty = no CSV)")
		traceOut = fs.String("trace", "", "write an ns-2-style packet event trace to this file")
		summary  = fs.Bool("summary", true, "print the per-flow summary")
		runs     = fs.Int("runs", 1, "seed replicas of the scenario (derived per-run seeds)")
		ssThresh = fs.Float64("ss-thresh", 0, "slow-start exit threshold in pkt/s (0 = the paper's 32); raise it on fat fabrics so flows reach large fair shares exponentially instead of by linear increase")

		chainCores = fs.Int("chain-cores", 0, "generate a synthetic chain of N core nodes instead of a built-in topology (flow backend only)")
		chainFlows = fs.Int("chain-flows", 0, "flows crossing the generated chain (default -flows)")
		chainCap   = fs.Float64("chain-capacity", 0, "per-link capacity of the generated chain in pkt/s (0 = the paper's 500)")
		chainSpan  = fs.Int("chain-span", 0, "max consecutive links one chain flow crosses (0 = 4)")
	)
	if err := f.Parse(fs, args); err != nil {
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
		Duration:      f.Duration,
		Seed:          f.Seed,
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
	if *ssThresh > 0 {
		ec := corelite.DefaultEdgeConfig()
		ec.Adapt.SSThresh = *ssThresh
		sc.EdgeConfig = ec
		cec := corelite.DefaultCSFQEdgeConfig()
		cec.Adapt.SSThresh = *ssThresh
		sc.CSFQEdgeConfig = cec
	}
	nflows := *flows
	if *chainCores > 0 {
		if *chainFlows > 0 {
			nflows = *chainFlows
		}
		sc.Chain = &corelite.ChainTopology{
			Cores:       *chainCores,
			Flows:       nflows,
			CapacityPPS: *chainCap,
			MaxSpan:     *chainSpan,
		}
		sc.NumFlows = 0
	}
	if *weights != "" {
		if f.Topo != "" {
			return fmt.Errorf("-weights with -topo: the topology's spec carries the flow weights")
		}
		w, err := parseWeights(*weights)
		if err != nil {
			return err
		}
		for idx := range w {
			if idx < 1 || idx > nflows {
				return fmt.Errorf("-weights: flow %d is outside 1..%d", idx, nflows)
			}
		}
		sc.Weights = w
	}
	gen, spec, err := f.Topology()
	if err != nil {
		return err
	}
	if gen != nil {
		sc.Generate = gen
		sc.NumFlows = 0
	}
	sc.Spec = spec

	var traceFile *os.File
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer tf.Close()
		traceFile = tf
		sc.Tracer = &corelite.WriterTracer{W: traceFile}
	}

	// One job per seed replica. The first replica runs the scenario
	// exactly as specified; later replicas derive decorrelated seeds so
	// a batch explores seed sensitivity reproducibly.
	jobs := make([]corelite.Job, *runs)
	for i := range jobs {
		rsc := sc
		if *runs > 1 {
			rsc.Name = fmt.Sprintf("%s-r%d", sc.Name, i+1)
			if i > 0 {
				rsc.Seed = corelite.DeriveSeed(f.Seed, rsc.Name)
			}
		}
		jobs[i] = corelite.Job{Name: rsc.Name, Scenario: rsc}
	}
	results, err := f.Run(stdout, os.Stderr, jobs)
	if err != nil {
		return err
	}
	if traceFile != nil {
		fmt.Fprintln(stdout, "wrote", *traceOut)
	}
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("run %s: %w", r.Job.Name, r.Err)
		}
		prefix, obsPrefix := *out, ""
		if *runs > 1 {
			fmt.Fprintf(stdout, "run %s (seed %d): %d events, %d losses\n",
				r.Job.Name, r.Job.Scenario.Seed, r.Stats.Events, r.Stats.Dropped)
			prefix, obsPrefix = fmt.Sprintf("%s-r%d", *out, i+1), fmt.Sprintf("r%d.", i+1)
		}
		if f.Backend == corelite.BackendFlow && r.Stats.Wall > 0 {
			// The fluid engine's scale metric: simulated flow-seconds per
			// wall second.
			simSec := r.Job.Scenario.Duration.Seconds()
			fmt.Fprintf(stdout, "flow backend: %d flows × %.0fs simulated in %v (%.3g flow·s/s, %d events)\n",
				len(r.Output.Flows), simSec, r.Stats.Wall.Round(time.Millisecond),
				float64(len(r.Output.Flows))*simSec/r.Stats.Wall.Seconds(), r.Stats.Events)
		}
		if err := f.Report(stdout, r, "", " "+r.Job.Name, obsPrefix); err != nil {
			return fmt.Errorf("run %s: %w", r.Job.Name, err)
		}
		if *summary {
			if err := corelite.WriteSummary(stdout, r.Output); err != nil {
				return err
			}
		}
		if *out != "" {
			for _, kind := range []trace.SeriesKind{corelite.SeriesAllowed, corelite.SeriesReceived, corelite.SeriesCumulative} {
				path := fmt.Sprintf("%s-%s.csv", prefix, kind)
				if err := cli.WriteCSV(path, r.Output, kind); err != nil {
					return err
				}
				fmt.Fprintln(stdout, "wrote", path)
			}
		}
	}
	return nil
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
		if !(w > 0) {
			return nil, fmt.Errorf("bad weight %q for flow %d: want a positive weight", kv[1], idx)
		}
		out[idx] = w
	}
	return out, nil
}
