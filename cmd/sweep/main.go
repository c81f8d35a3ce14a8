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
// The flags every command shares are documented in internal/cli; -obs writes
// one label-prefixed bundle per point. The flow backend sweeps only the
// epoch: it does not model the queue threshold, the link delay or K1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
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
	var f cli.Flags
	// -check-tol is wide by default: sweep points intentionally include
	// badly tuned settings.
	f.RegisterPool(fs, 0.25)
	f.RegisterTopology(fs)
	param := fs.String("param", "epoch", "parameter to sweep: epoch, qthresh, latency, k1")
	if err := f.Parse(fs, args); err != nil {
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
	if *param != "epoch" && f.Backend == experiments.BackendFlow {
		return fmt.Errorf("-param %s is a packet-level knob the flow backend does not model (every point would read the same); use -backend packet", *param)
	}

	base := experiments.Fig5Scenario(f.Seed)
	base.Duration = f.Duration
	baseLabel := "Figure 5 scenario"
	gen, spec, err := f.Topology()
	if err != nil {
		return err
	}
	if gen != nil || spec != nil {
		base = experiments.Scenario{
			Name:     "sweep-generated",
			Scheme:   experiments.SchemeCorelite,
			Duration: f.Duration,
			Seed:     f.Seed,
			Generate: gen,
			Spec:     spec,
		}
		baseLabel = f.Topo
	}
	scs := experiments.SweepScenarios(base, points)
	results, err := f.Run(stdout, stderr, run.FromScenarios(scs...))
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "sensitivity sweep over %s (%s, %v, seed %d)\n\n", *param, baseLabel, f.Duration, f.Seed)
	fmt.Fprintf(stdout, "%-16s %-10s %-12s %-8s %-12s %-10s\n",
		"point", "losses", "loss-ratio", "jain", "worst-conv", "converged")
	for i, res := range results {
		if res.Err != nil {
			return fmt.Errorf("sweep point %q: %w", points[i].Label, res.Err)
		}
		r := experiments.Summarize(points[i].Label, scs[i], res.Output)
		fmt.Fprintf(stdout, "%-16s %-10d %-12.4f %-8.4f %-12v %-10v\n",
			r.Label, r.Losses, r.LossRatio, r.Jain, r.WorstConv.Round(time.Second), r.AllConverged)
		if err := f.Report(stdout, res, "  ", "", obs.FilePrefix(res.Job.Name)); err != nil {
			return fmt.Errorf("sweep point %q: %w", points[i].Label, err)
		}
	}
	if f.Obs != "" {
		fmt.Fprintf(stdout, "\ntelemetry bundles in %s (one per point: events.jsonl, series.csv, counters.csv, hist.jsonl, perf.csv, trace.json)\n", f.Obs)
	}
	return nil
}
