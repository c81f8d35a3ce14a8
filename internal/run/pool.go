// Package run is the execution engine of the evaluation: it fans a batch
// of independent scenario jobs out over a bounded worker pool and collects
// per-job results and instrumentation.
//
// The paper's evaluation (§4, Figures 3–10 plus the §4.4 sweeps and the
// ablations) is embarrassingly parallel across runs: every scenario owns
// its private sim.Scheduler, RNG streams and topology, and no package in
// the simulator keeps mutable global state. The pool exploits exactly that
// independence — each job executes in its own scheduler on one worker
// goroutine — while preserving the repository's determinism guarantee:
// results are keyed by job position in the batch, never by completion
// order, so a batch executed on eight workers produces byte-identical
// output to the same batch executed on one.
//
// Layering: internal/experiments is the spec layer (Scenario values are
// pure descriptions; constructors like Fig3Scenario build them),
// internal/run is the engine (this package), and the consumers —
// cmd/figures, cmd/sweep, cmd/coresim, the bench suite and the corelite
// facade — submit specs to the engine and render the keyed results.
package run

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// Job pairs a stable name with the scenario spec to execute. The name keys
// progress reporting and seed derivation; the scenario is executed exactly
// as given (the pool never mutates specs).
type Job struct {
	// Name identifies the job in progress lines and derived seeds.
	Name string
	// Scenario is the pure experiment description to run.
	Scenario experiments.Scenario
}

// FromScenarios wraps scenarios into jobs named after each scenario.
func FromScenarios(scs ...experiments.Scenario) []Job {
	jobs := make([]Job, len(scs))
	for i, sc := range scs {
		jobs[i] = Job{Name: sc.Name, Scenario: sc}
	}
	return jobs
}

// Stats instruments one completed job.
type Stats struct {
	// Wall is the host wall-clock time the job took.
	Wall time.Duration
	// Events is the number of simulation events processed.
	Events uint64
	// Forwarded is the number of packets delivered end to end, summed
	// over flows; Dropped is the number of packets lost.
	Forwarded int64
	Dropped   int64
	// EventsPerSec is Events over Wall.
	EventsPerSec float64
	// Telemetry summarizes the job's control-plane health (events by
	// kind, peak queue, congestion epochs); nil when the job ran without
	// an observability registry.
	Telemetry *obs.Summary
	// Violations is the number of invariant-checker findings (0 when the
	// scenario ran without a checker attached).
	Violations int
}

// Result is one job's outcome. Index is the job's position in the batch
// Execute received, so a result slice is always in submission order
// regardless of which worker finished first.
type Result struct {
	// Index is the job's position in the submitted batch.
	Index int
	// Job echoes the executed job.
	Job Job
	// Output is the completed run (nil when Err is set).
	Output *experiments.Result
	// Stats carries per-run instrumentation.
	Stats Stats
	// Obs is the job's telemetry registry (the scenario's own, or the one
	// the pool attached under Config.Observe); nil when observability was
	// off.
	Obs *obs.Registry
	// Err is the scenario error, the captured panic, or the context
	// error for jobs cancelled before they started.
	Err error
}

// FirstErr returns the first (lowest-index) job error in the batch, or nil.
func FirstErr(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("job %q: %w", r.Job.Name, r.Err)
		}
	}
	return nil
}

// Config parameterizes a Pool.
type Config struct {
	// Workers bounds the number of concurrently executing jobs;
	// <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// OnDone, when non-nil, observes each result as its job completes.
	// Calls are serialized but arrive in completion order, so OnDone is
	// for progress reporting; ordered output belongs after Execute
	// returns.
	OnDone func(Result)
	// Observe attaches a fresh telemetry registry to every job whose
	// scenario does not already carry one (registries are single-run, so
	// parallel jobs never share). Summaries land in Stats.Telemetry.
	Observe bool
	// ObsSample is the gauge sampling interval for pool-attached
	// registries (0 → the experiments default; negative disables
	// sampling).
	ObsSample time.Duration
	// Backend, when non-zero, is applied to every job whose scenario
	// leaves the backend at the packet default — how a CLI's -backend
	// flag retargets a whole batch without rebuilding its specs. A job
	// that explicitly selects a backend keeps it.
	Backend experiments.Backend
	// OnProgress, when non-nil (and ProgressEvery > 0), receives fleet-wide
	// live progress aggregated over every job on a wall-clock ticker, plus
	// one final update when the batch drains. Calls arrive from a dedicated
	// reporter goroutine, never concurrently with each other.
	OnProgress func(ProgressUpdate)
	// ProgressEvery is the wall-clock ticker interval for OnProgress
	// (<= 0 disables progress reporting).
	ProgressEvery time.Duration
}

// Pool executes job batches on a bounded set of worker goroutines.
type Pool struct {
	workers       int
	onDone        func(Result)
	observe       bool
	obsSample     time.Duration
	backend       experiments.Backend
	onProgress    func(ProgressUpdate)
	progressEvery time.Duration
}

// New returns a pool with the configured worker bound.
func New(cfg Config) *Pool {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: w, onDone: cfg.OnDone, observe: cfg.Observe,
		obsSample: cfg.ObsSample, backend: cfg.Backend,
		onProgress: cfg.OnProgress, progressEvery: cfg.ProgressEvery}
}

// Workers reports the pool's worker bound.
func (p *Pool) Workers() int { return p.workers }

// Execute runs every job and returns one Result per job, in job order. A
// job that fails — scenario error or panic — fails only its own result;
// the rest of the batch still runs. Cancelling the context stops feeding
// new jobs to workers (in-flight simulations run to completion, since the
// event loop is not preemptible) and marks never-started jobs with the
// context error, which Execute also returns.
func (p *Pool) Execute(ctx context.Context, jobs []Job) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(jobs))
	for i := range jobs {
		results[i] = Result{Index: i, Job: jobs[i], Err: ctx.Err()}
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}

	// Live progress: one atomic tracker per job, aggregated by a wall-clock
	// reporter goroutine. Jobs that carry their own tracker keep it (and the
	// reporter reads that one).
	var trackers []*obs.Progress
	if p.onProgress != nil && p.progressEvery > 0 {
		trackers = make([]*obs.Progress, len(jobs))
		for i := range jobs {
			if tr := jobs[i].Scenario.Progress; tr != nil {
				trackers[i] = tr
			} else {
				trackers[i] = &obs.Progress{}
			}
		}
		stop := p.startProgress(jobs, trackers)
		defer stop()
	}

	workers := p.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	feed := make(chan int)
	go func() {
		defer close(feed)
		for i := range jobs {
			select {
			case feed <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var doneMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				var tr *obs.Progress
				if trackers != nil {
					tr = trackers[i]
				}
				res := p.execute(i, jobs[i], tr)
				results[i] = res
				if p.onDone != nil {
					doneMu.Lock()
					p.onDone(res)
					doneMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// Jobs the feeder never handed out kept their prefilled zero
		// result; stamp them with the cancellation error.
		for i := range results {
			if results[i].Output == nil && results[i].Err == nil {
				results[i].Err = err
			}
		}
		return results, err
	}
	return results, nil
}

// execute runs one job, converting a panicking scenario into a failed
// result instead of a dead process. tracker, when non-nil, is the progress
// reporter's per-job tracker; it is handed to the engine and always marked
// done on the way out so failed jobs don't stall the batch ETA.
func (p *Pool) execute(index int, job Job, tracker *obs.Progress) (res Result) {
	res = Result{Index: index, Job: job}
	sc := job.Scenario
	if sc.Backend == experiments.BackendPacket {
		sc.Backend = p.backend
	}
	if sc.Obs == nil && p.observe {
		sc.Obs = obs.NewRegistry()
		sc.ObsSample = p.obsSample
	}
	if sc.Progress == nil {
		sc.Progress = tracker
	}
	res.Obs = sc.Obs
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.Output = nil
			res.Err = fmt.Errorf("job %d (%q) panicked: %v\n%s", index, job.Name, r, debug.Stack())
		}
		tracker.MarkDone()
		res.Stats.Wall = time.Since(start)
		if res.Output != nil {
			res.Stats.Events = res.Output.Events
			res.Stats.Dropped = res.Output.TotalLosses
			for _, f := range res.Output.Flows {
				res.Stats.Forwarded += f.Delivered
			}
			if s := res.Stats.Wall.Seconds(); s > 0 {
				res.Stats.EventsPerSec = float64(res.Stats.Events) / s
			}
			if res.Obs != nil {
				sum := res.Obs.Summary()
				res.Stats.Telemetry = &sum
			}
			res.Stats.Violations = int(res.Output.TotalViolations)
		}
	}()
	res.Output, res.Err = experiments.Run(sc)
	return res
}

// DeriveSeed maps a base seed and a job name to a per-job seed, so seed
// replicas of the same scenario get decorrelated-but-reproducible
// randomness: the same (base, name) pair always yields the same seed, and
// distinct names yield distinct streams. The name is hashed with FNV-1a
// and mixed with the base through a splitmix64 finalizer.
func DeriveSeed(base int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name)) // fnv.Write never fails
	x := uint64(base) ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
