// Command sweep regenerates the paper's §4.4 sensitivity analysis: it
// reruns the Figure 5 startup scenario while varying one parameter — the
// congestion epoch, the marking threshold, the per-hop latency, or the
// marking constant K1 — and prints a table of losses, fairness, and
// convergence per setting. Sweep points are independent simulations and
// run on a worker pool; the table is printed in point order, so output is
// identical for any -parallel value.
//
//	sweep -param epoch
//	sweep -param latency -seed 3 -parallel 4
//	sweep -param qthresh -obs out/obs    # + per-point telemetry bundles
//	sweep -param epoch -topo fattree:k=4,flows=16 -traffic churn  # generated fabric
//
// With -obs DIR every sweep point captures control-plane telemetry and
// writes a label-prefixed bundle (events JSONL/CSV, sampled gauge series,
// Chrome trace JSON) into DIR. -cpuprofile/-memprofile write host pprof
// profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/run"
)

func main() {
	if err := mainRun(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func mainRun(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	param := fs.String("param", "epoch", "parameter to sweep: epoch, qthresh, latency, k1")
	topo := fs.String("topo", "", "sweep on a generated topology (fattree:k=8,flows=48 / nclouds:n=3 / mesh:nodes=8) instead of the Figure 5 scenario")
	traffic := fs.String("traffic", "", "generated workload over -topo's flow slots (uniform / heavytail:... / churn:...)")
	backend := fs.String("backend", "packet", "execution engine: packet (reference) or flow (fluid; note qthresh/latency/k1 are packet-level knobs the fluid model abstracts away)")
	seed := fs.Int64("seed", 1, "random seed")
	duration := fs.Duration("duration", 80*time.Second, "simulated duration per point")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent sweep points (1 = serial)")
	obsDir := fs.String("obs", "", "directory for per-point control-plane telemetry bundles")
	progress := fs.Bool("progress", false, "print aggregated live progress (sim-time rate, throughput, ETA) to stderr every 2s")
	check := fs.Bool("check", false, "attach the runtime invariant checker to every sweep point; violations fail the command")
	checkTol := fs.Float64("check-tol", 0.25, "fairness-residual tolerance for -check (wide by default: sweep points intentionally include badly tuned settings)")
	cpuProf := fs.String("cpuprofile", "", "write a host CPU profile of the sweep to this file")
	memProf := fs.String("memprofile", "", "write a post-run heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	be, err := experiments.ParseBackend(*backend)
	if err != nil {
		return err
	}

	var points []experiments.SweepPoint
	switch *param {
	case "epoch":
		points = experiments.EpochSweep()
	case "qthresh":
		points = experiments.QThreshSweep()
	case "latency":
		points = experiments.LatencySweep()
	case "k1":
		points = experiments.K1Sweep()
	default:
		return fmt.Errorf("unknown parameter %q (want epoch, qthresh, latency, or k1)", *param)
	}

	base := experiments.Fig5Scenario(*seed)
	base.Duration = *duration
	baseLabel := "Figure 5 scenario"
	if *topo != "" {
		gen, err := experiments.ParseGenerate(*topo, *traffic)
		if err != nil {
			return err
		}
		base = experiments.Scenario{
			Name:     "sweep-generated",
			Scheme:   experiments.SchemeCorelite,
			Duration: *duration,
			Seed:     *seed,
			Generate: gen,
		}
		baseLabel = *topo
	} else if *traffic != "" {
		return fmt.Errorf("-traffic needs a generated -topo (fattree/nclouds/mesh)")
	}
	scs := experiments.SweepScenarios(base, points)
	if *check {
		for i := range scs {
			scs[i].Check = invariant.New(invariant.Config{FairnessTol: *checkTol})
		}
	}

	poolCfg := run.Config{
		Workers: *parallel,
		Backend: be,
		Observe: *obsDir != "",
		OnDone: func(r run.Result) {
			if r.Err != nil {
				return // reported in point order below
			}
			fmt.Fprintf(stderr, "%-28s done in %v (%d events)\n",
				r.Job.Name, r.Stats.Wall.Round(time.Millisecond), r.Stats.Events)
		},
	}
	if *progress {
		poolCfg.ProgressEvery = 2 * time.Second
		poolCfg.OnProgress = func(u run.ProgressUpdate) { fmt.Fprintln(stderr, u) }
	}
	pool := run.New(poolCfg)
	stopCPU, err := obs.StartCPUProfile(*cpuProf)
	if err != nil {
		return err
	}
	results, err := pool.Execute(context.Background(), run.FromScenarios(scs...))
	if stopErr := stopCPU(); stopErr != nil && err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	if err := obs.WriteHeapProfile(*memProf); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "sensitivity sweep over %s (%s, %v, seed %d)\n\n", *param, baseLabel, *duration, *seed)
	fmt.Fprintf(stdout, "%-16s %-10s %-12s %-8s %-12s %-10s\n",
		"point", "losses", "loss-ratio", "jain", "worst-conv", "converged")
	for i, res := range results {
		if res.Err != nil {
			return fmt.Errorf("sweep point %q: %w", points[i].Label, res.Err)
		}
		r := experiments.Summarize(points[i].Label, scs[i], res.Output)
		fmt.Fprintf(stdout, "%-16s %-10d %-12.4f %-8.4f %-12v %-10v\n",
			r.Label, r.Losses, r.LossRatio, r.Jain, r.WorstConv.Round(time.Second), r.AllConverged)
		if *check {
			if n := len(res.Output.Violations); n > 0 {
				for _, v := range res.Output.Violations {
					fmt.Fprintf(stdout, "  VIOLATION %s\n", v)
				}
				return fmt.Errorf("sweep point %q: %d invariant violation(s)", points[i].Label, n)
			}
		}
		if *obsDir != "" {
			if _, err := res.Obs.WriteDir(*obsDir, obs.FilePrefix(res.Job.Name)); err != nil {
				return err
			}
		}
	}
	if *obsDir != "" {
		fmt.Fprintf(stdout, "\ntelemetry bundles in %s (one per point: events.jsonl, events.csv, series.csv, counters.csv, hist.jsonl, hist.csv, perf.csv, trace.json)\n", *obsDir)
	}
	return nil
}
