// Package cli is the front end the command-line tools share: the flags
// every batch command takes, the -topo/-traffic pair, and the
// run-and-report tail. Each command keeps only its own flags and output.
//
// The shared flags mean the same in coresim, figures and sweep:
//
//	-seed N          random seed (fluid takes it too, with -topo/-traffic)
//	-backend B       packet (discrete-event reference) or flow (fluid)
//	-parallel N      worker-pool size; output is identical for any value
//	-duration D      simulated horizon (coresim, sweep)
//	-obs DIR         per-run telemetry bundle: events.jsonl, series.csv,
//	                 counters.csv, hist.jsonl, perf.csv, trace.json
//	-progress        one aggregated live-progress line on stderr every 2s
//	-check           runtime invariant checker; a violation fails the command
//	-check-tol X     its fairness-residual tolerance (coresim 0.05, sweep 0.25)
//	-cpuprofile F    host CPU profile of the batch
//	-memprofile F    post-run heap profile
//	-topo T          a topology spec file, or fattree:/nclouds:/mesh: spec
//	-traffic W       uniform/heavytail/churn workload over a generator -topo
//
// Telemetry, the checker and the profiles never change a CSV byte.
package cli

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
	"repro/internal/topogen"
	"repro/internal/topospec"
	"repro/internal/trace"
)

// Flags holds the parsed values of the shared flags.
type Flags struct {
	Seed     int64
	Duration time.Duration
	Backend  experiments.Backend
	Check    bool
	CheckTol float64
	Obs      string
	Topo     string
	Traffic  string

	backend          string
	parallel         int
	progress         bool
	cpuProf, memProf string
}

// RegisterSeed declares -seed, which also seeds -topo/-traffic generation.
func (f *Flags) RegisterSeed(fs *flag.FlagSet) {
	fs.Int64Var(&f.Seed, "seed", 1, "random seed (also seeds -topo/-traffic generation)")
}

// RegisterPool declares -seed and the flags of a command that runs a batch
// on the worker pool. A command that sizes its own scenario passes its
// -check-tol default and also gets -duration; figures, whose scenarios fix
// both, passes 0.
func (f *Flags) RegisterPool(fs *flag.FlagSet, checkTol float64) {
	f.RegisterSeed(fs)
	fs.StringVar(&f.backend, "backend", "packet", "execution engine: packet (discrete-event reference) or flow (fluid rates, orders of magnitude faster)")
	fs.IntVar(&f.parallel, "parallel", runtime.GOMAXPROCS(0), "concurrent runs (1 = serial); output is identical for any value")
	fs.StringVar(&f.Obs, "obs", "", "directory for per-run control-plane telemetry (events JSONL, sampled series, counters, histograms, engine perf profile, Chrome trace)")
	fs.BoolVar(&f.progress, "progress", false, "print aggregated live progress (sim-time rate, throughput, active flows, ETA) to stderr every 2s")
	fs.BoolVar(&f.Check, "check", false, "attach the runtime invariant checker (conservation, queue bounds, marker accounting, fairness residual); violations fail the command")
	fs.StringVar(&f.cpuProf, "cpuprofile", "", "write a host CPU profile of the runs to this file")
	fs.StringVar(&f.memProf, "memprofile", "", "write a post-run heap profile to this file")
	if checkTol > 0 {
		fs.DurationVar(&f.Duration, "duration", 80*time.Second, "simulated duration")
		fs.Float64Var(&f.CheckTol, "check-tol", checkTol, "fairness-residual tolerance for -check")
	}
}

// RegisterTopology declares -topo and -traffic.
func (f *Flags) RegisterTopology(fs *flag.FlagSet) {
	fs.StringVar(&f.Topo, "topo", "", "topology spec file, or a generator spec like fattree:k=8,flows=48 / nclouds:n=3,remark=1 / mesh:nodes=8, in place of the command's built-in topology")
	fs.StringVar(&f.Traffic, "traffic", "", "generated workload over a generator -topo's flow slots: uniform / heavytail:unresp=0.1,urate=350 / churn:heavy=0.25")
}

// Parse parses args into fs and resolves -backend.
func (f *Flags) Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	be, err := experiments.ParseBackend(f.backend)
	f.Backend = be
	return err
}

// Topology resolves -topo/-traffic: neither when -topo is empty, a
// generator block for a fattree/nclouds/mesh spec, and otherwise the
// topology spec file -topo names. experiments.ParseGenerate refuses
// -traffic without a generator -topo.
func (f *Flags) Topology() (*experiments.Generate, *topospec.Spec, error) {
	if f.Topo != "" && f.Traffic == "" && !topogen.IsSpec(f.Topo) {
		spec, err := topospec.ParseFile(f.Topo)
		return nil, spec, err
	}
	gen, err := experiments.ParseGenerate(f.Topo, f.Traffic)
	return gen, nil, err
}

// Run executes jobs on a pool of -parallel workers, with the whole batch
// under -cpuprofile; -memprofile is written after. Every job that leaves the
// backend at the packet default runs on -backend, so the flag retargets a
// batch without rebuilding its specs; under -obs every job that carries no
// registry gets a fresh one (registries are single-run, so parallel jobs
// never share), and under -check every job that carries no checker gets a
// -check-tol one. Each finished job's line and the -progress lines go to
// stderr in completion order; the profiles written are announced on
// stdout. Results come back in job order, failed jobs included.
func (f *Flags) Run(stdout, stderr io.Writer, jobs []run.Job) ([]run.Result, error) {
	for i := range jobs {
		sc := &jobs[i].Scenario
		if sc.Backend == experiments.BackendPacket {
			sc.Backend = f.Backend
		}
		if f.Obs != "" && sc.Obs == nil {
			sc.Obs = obs.NewRegistry()
		}
		if f.Check && sc.Check == nil {
			sc.Check = invariant.New(invariant.Config{FairnessTol: f.CheckTol})
		}
	}
	cfg := run.Config{
		Workers: f.parallel,
		OnDone: func(r run.Result) {
			if r.Err == nil { // failures are reported in job order
				fmt.Fprintf(stderr, "%s done in %v (%d events, %.2f Mevents/s)\n",
					r.Job.Name, r.Stats.Wall.Round(time.Millisecond), r.Stats.Events, r.Stats.EventsPerSec/1e6)
			}
		},
	}
	if f.progress {
		cfg.ProgressEvery = 2 * time.Second
		cfg.OnProgress = func(u run.ProgressUpdate) { fmt.Fprintln(stderr, u) }
	}
	stopCPU, err := obs.StartCPUProfile(f.cpuProf)
	if err != nil {
		return nil, err
	}
	results, err := run.New(cfg).Execute(context.Background(), jobs)
	if stopErr := stopCPU(); stopErr != nil && err == nil {
		err = stopErr
	}
	if err == nil {
		err = obs.WriteHeapProfile(f.memProf)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range []string{f.memProf, f.cpuProf} {
		if p != "" {
			fmt.Fprintln(stdout, "wrote", p)
		}
	}
	return results, nil
}

// Report prints one successful result's invariant verdict under -check —
// the check count, or each violation, which fails the run — and under -obs
// writes its telemetry bundle into the -obs directory with obsPrefix and
// prints each file written and the telemetry summary. Every line starts
// with indent; tag follows the word "check" in the verdict lines.
func (f *Flags) Report(w io.Writer, r run.Result, indent, tag, obsPrefix string) error {
	if f.Check {
		res := r.Output
		for _, v := range res.Violations {
			fmt.Fprintf(w, "%scheck%s: VIOLATION %s\n", indent, tag, v)
		}
		if n := res.TotalViolations; n > 0 {
			return fmt.Errorf("%d invariant violation(s), %d shown", n, len(res.Violations))
		}
		fmt.Fprintf(w, "%scheck%s: %d invariant checks passed\n", indent, tag, res.InvariantChecks)
	}
	if f.Obs == "" {
		return nil
	}
	paths, err := r.Obs.WriteDir(f.Obs, obsPrefix)
	if err != nil {
		return err
	}
	for _, p := range paths {
		fmt.Fprintf(w, "%swrote %s\n", indent, p)
	}
	if tel := r.Stats.Telemetry; tel != nil {
		fmt.Fprintf(w, "%stelemetry: %d control events, %d samples, %d congestion epochs, %d feedback, %d drops, peak queue %.0f\n",
			indent, tel.Events, tel.Samples, tel.CongestionEpochs, tel.FeedbackSent, tel.Drops, tel.PeakQueue)
	}
	return nil
}

// WriteCSV writes one per-flow series of res as a CSV file at path.
func WriteCSV(path string, res *experiments.Result, kind trace.SeriesKind) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteCSV(f, res, kind); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
