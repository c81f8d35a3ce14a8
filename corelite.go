// Package corelite is a library-grade reproduction of "Achieving Per-Flow
// Weighted Rate Fairness in a Core Stateless Network" (Sivakumar, Kim,
// Venkitaraman, Li, Bharghavan — ICDCS 2000): the Corelite QoS architecture,
// a weighted CSFQ baseline, the packet-level discrete-event network
// simulator they run on, and a harness that regenerates every figure of the
// paper's evaluation.
//
// # Quick start
//
//	sc := corelite.Scenario{
//		Name:     "two-flows",
//		Scheme:   corelite.SchemeCorelite,
//		Duration: 30 * time.Second,
//		NumFlows: 2,
//		Weights:  map[int]float64{1: 1, 2: 2},
//		Dumbbell: true,
//	}
//	res, err := corelite.Run(sc)
//	// res.Flow(2).AllowedRate tracks ~2x res.Flow(1).AllowedRate.
//
// # Architecture
//
// Three layers, mirroring the paper:
//
//   - substrate: a deterministic discrete-event engine, links with rate /
//     delay / drop-tail (or RED) queues, static shortest-path routing and a
//     latency-faithful control plane (packages internal/sim,
//     internal/netem, internal/topology, internal/workload);
//   - schemes: Corelite edge and core routers (internal/core) and weighted
//     CSFQ (internal/csfq), both driving the shared slow-start + LIMD
//     source agent (internal/adapt);
//   - evaluation: scenario harness, per-figure runners, weighted max-min
//     oracle, and metrics (internal/experiments, internal/maxmin,
//     internal/metrics, internal/trace).
//
// This package re-exports the evaluation surface; the figure runners
// RunFig3 … RunFig10 regenerate the paper's plots as data series.
package corelite

import (
	"context"
	"io"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/csfq"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/topospec"
	"repro/internal/trace"
	"repro/internal/trafficgen"
	"repro/internal/workload"
)

// Queue-discipline types, for Scenario.TopologyOptions.CoreQueue (e.g. the
// drop-tail vs RED ablation of the paper's claim that Corelite's feedback
// is independent of the core scheduling discipline).
type (
	// Discipline is a link output queue discipline.
	Discipline = netem.Discipline
	// DropTail is the paper's bounded FIFO queue.
	DropTail = netem.DropTail
	// RED is a Random Early Detection queue.
	RED = netem.RED
	// REDConfig parameterizes RED.
	REDConfig = netem.REDConfig
	// FRED is a Flow Random Early Drop queue (per-buffered-flow state —
	// the related-work contrast of paper §5).
	FRED = netem.FRED
	// FREDConfig parameterizes FRED.
	FREDConfig = netem.FREDConfig
	// WFQ is a Weighted Fair Queueing discipline with per-flow state —
	// the Intserv-style ideal the paper positions core-stateless designs
	// against.
	WFQ = netem.WFQ
	// RNG is a deterministic random stream (RED drop decisions).
	RNG = sim.RNG
	// Tracer consumes packet-level trace events (see Scenario.Tracer).
	Tracer = netem.Tracer
	// WriterTracer renders trace events line by line to a writer.
	WriterTracer = netem.WriterTracer
	// TraceEvent is one packet-level trace event.
	TraceEvent = netem.TraceEvent
)

// Queue-discipline constructors.
var (
	// NewDropTail returns a bounded FIFO queue.
	NewDropTail = netem.NewDropTail
	// NewRED returns a RED queue.
	NewRED = netem.NewRED
	// DefaultREDConfig returns the classic RED parameterization.
	DefaultREDConfig = netem.DefaultREDConfig
	// NewFRED returns a FRED queue.
	NewFRED = netem.NewFRED
	// DefaultFREDConfig returns the classic FRED parameterization.
	DefaultFREDConfig = netem.DefaultFREDConfig
	// NewWFQ returns a WFQ queue with per-flow weights.
	NewWFQ = netem.NewWFQ
	// NewRNG returns a seeded random stream.
	NewRNG = sim.NewRNG
)

// Core experiment types.
type (
	// Scenario describes one experiment: scheme, topology, workload and
	// measurement settings.
	Scenario = experiments.Scenario
	// Result is a completed run with per-flow series and totals.
	Result = experiments.Result
	// FlowResult carries one flow's measurements.
	FlowResult = experiments.FlowResult
	// Scheme selects the architecture under test.
	Scheme = experiments.Scheme
	// FlowID identifies an edge-to-edge flow.
	FlowID = packet.FlowID
	// CrossTraffic is an unresponsive on/off background stream on a core
	// link.
	CrossTraffic = experiments.CrossTraffic
	// Transport selects a flow's packet producer (backlogged or TCP).
	Transport = experiments.Transport
	// TopologySpec is a parsed custom-cloud description (see
	// Scenario.Spec and ParseTopology).
	TopologySpec = topospec.Spec
	// TCPConfig tunes the TCP-Reno-like end-host transport.
	TCPConfig = host.TCPConfig
	// Backend selects the execution engine for a scenario (packet-level
	// discrete-event, or flow-level fluid).
	Backend = experiments.Backend
	// ChainTopology generates a synthetic chain of core nodes for the
	// flow backend (Scenario.Chain) — the scale playground for
	// thousand-node, ten-thousand-flow runs.
	ChainTopology = experiments.ChainTopology
	// Generate describes a parametrically generated scenario
	// (Scenario.Generate): a topogen topology plus an optional trafficgen
	// workload over its flow slots.
	Generate = experiments.Generate
	// TopoGenConfig parameterizes the topology generators (fat-tree,
	// N-cloud concatenation, random mesh).
	TopoGenConfig = topogen.Config
	// TrafficGenConfig parameterizes the workload generators (uniform,
	// heavy-tailed mice/elephants, churn + flash crowd).
	TrafficGenConfig = trafficgen.Config
)

// Backends.
const (
	// BackendPacket is the packet-level reference engine (the default).
	BackendPacket = experiments.BackendPacket
	// BackendFlow is the flow-level fluid engine: rates advance between
	// events as the demand-capped weighted water-filling allocation —
	// orders of magnitude faster, no packet-scale effects.
	BackendFlow = experiments.BackendFlow
)

// ParseBackend maps a CLI spelling ("packet", "flow", "fluid", "") to a
// Backend.
var ParseBackend = experiments.ParseBackend

// Transports.
const (
	// TransportBacklogged is the paper's always-backlogged shaped source
	// (the default).
	TransportBacklogged = experiments.TransportBacklogged
	// TransportTCP runs a TCP-Reno-like end host through the edge's
	// per-flow shaper (Corelite only).
	TransportTCP = experiments.TransportTCP
)

// Schemes.
const (
	// SchemeCorelite runs the paper's architecture.
	SchemeCorelite = experiments.SchemeCorelite
	// SchemeCSFQ runs the weighted CSFQ baseline.
	SchemeCSFQ = experiments.SchemeCSFQ
)

// Configuration types.
type (
	// EdgeConfig parameterizes Corelite edge routers.
	EdgeConfig = core.EdgeConfig
	// RouterConfig parameterizes Corelite core routers.
	RouterConfig = core.RouterConfig
	// SelectorKind picks the core feedback mechanism.
	SelectorKind = core.SelectorKind
	// CSFQEdgeConfig parameterizes CSFQ edges.
	CSFQEdgeConfig = csfq.EdgeConfig
	// CSFQRouterConfig parameterizes CSFQ cores.
	CSFQRouterConfig = csfq.RouterConfig
	// AdaptConfig parameterizes the shared source agent.
	AdaptConfig = adapt.Config
	// TopologyOptions tweaks the built topology.
	TopologyOptions = topology.Options
)

// Selector kinds.
const (
	// SelectorCache is the §2.2 marker-cache feedback.
	SelectorCache = core.SelectorCache
	// SelectorStateless is the §3.2 cache-less selective feedback.
	SelectorStateless = core.SelectorStateless
)

// DetectorKind selects the congestion-estimation module (the paper notes
// it is replaceable "with no impact on the rest of the Corelite
// mechanisms").
type DetectorKind = core.DetectorKind

// Detector kinds.
const (
	// DetectorMM1Cubic is the paper's §3.1 estimator (default).
	DetectorMM1Cubic = core.DetectorMM1Cubic
	// DetectorLinear is a DECbit-flavoured estimator.
	DetectorLinear = core.DetectorLinear
	// DetectorEWMA is a RED-flavoured estimator.
	DetectorEWMA = core.DetectorEWMA
)

// Default configurations (the paper's parameters).
var (
	// DefaultEdgeConfig returns the paper's edge settings.
	DefaultEdgeConfig = core.DefaultEdgeConfig
	// DefaultRouterConfig returns the paper's core settings.
	DefaultRouterConfig = core.DefaultRouterConfig
	// DefaultCSFQEdgeConfig returns the paper's CSFQ edge settings.
	DefaultCSFQEdgeConfig = csfq.DefaultEdgeConfig
	// DefaultCSFQRouterConfig returns the paper's CSFQ core settings.
	DefaultCSFQRouterConfig = csfq.DefaultRouterConfig
	// DefaultAdaptConfig returns the paper's source-agent settings.
	DefaultAdaptConfig = adapt.DefaultConfig
	// DefaultTCPConfig returns the TCP transport defaults.
	DefaultTCPConfig = host.DefaultTCPConfig
	// DisableCorrection turns off the cubic F_n term (ablation).
	DisableCorrection = core.DisableCorrection
	// DisableDamping turns off the outstanding-feedback discount
	// (ablation).
	DisableDamping = core.DisableDamping
)

// Workload scheduling types.
type (
	// Schedule is a flow's list of activity windows.
	Schedule = workload.Schedule
	// Interval is one half-open activity window.
	Interval = workload.Interval
)

// Schedule constructors.
var (
	// Always returns an always-active schedule.
	Always = workload.Always
	// Window returns a single [start, stop) schedule.
	Window = workload.Window
)

// Measurement types.
type (
	// Series is an ordered measurement time series.
	Series = metrics.Series
	// Sample is one series point.
	Sample = metrics.Sample
)

// Measurement helpers.
var (
	// JainIndex computes Jain's fairness index.
	JainIndex = metrics.JainIndex
	// ConvergenceTime reports when a series settles at an expected value.
	ConvergenceTime = metrics.ConvergenceTime
)

// Observability (package internal/obs): attach a fresh ObsRegistry to
// Scenario.Obs (or set PoolConfig.Observe for batches) to capture named
// counters, sampled gauge time series, and the structured control-plane
// event stream of a run, then export them with the registry's WriteDir /
// WriteEventsJSONL / WriteChromeTrace methods. The layer draws no
// randomness and perturbs no model state, so figure output is
// byte-identical with it on or off.
type (
	// ObsRegistry is the per-run instrumentation hub.
	ObsRegistry = obs.Registry
	// ObsSummary condenses a run's telemetry into per-job health numbers.
	ObsSummary = obs.Summary
	// ControlEvent is one structured control-plane event.
	ControlEvent = obs.ControlEvent
	// ControlKind enumerates control-plane event kinds.
	ControlKind = obs.ControlKind
	// ObsHistogram is a log-bucketed latency/duration histogram instrument.
	ObsHistogram = obs.Histogram
	// RunProgress is the lock-free per-run liveness tracker read by
	// wall-clock progress reporters (Scenario.Progress).
	RunProgress = obs.Progress
	// ProgressUpdate is one fleet-wide live-progress observation delivered
	// by PoolConfig.OnProgress.
	ProgressUpdate = run.ProgressUpdate
)

// Observability constructors and profiling hooks.
var (
	// NewObsRegistry returns an empty instrumentation hub.
	NewObsRegistry = obs.NewRegistry
	// StartCPUProfile begins a host CPU profile (empty path = no-op).
	StartCPUProfile = obs.StartCPUProfile
	// WriteHeapProfile writes a post-GC heap profile (empty path = no-op).
	WriteHeapProfile = obs.WriteHeapProfile
)

// Correctness harness (package internal/invariant): attach a fresh
// InvariantChecker to Scenario.Check to verify packet/byte conservation,
// queue bounds, Corelite marker accounting, and the fairness residual
// against the weighted max-min oracle while a scenario runs. Findings come
// back as structured Violations in Result.Violations; sweeps read counters
// only, so figure output is byte-identical with the checker on or off.
type (
	// InvariantChecker enforces simulation invariants during a run.
	InvariantChecker = invariant.Checker
	// InvariantConfig tunes sweep interval, fairness tolerance, and the
	// violation retention cap.
	InvariantConfig = invariant.Config
	// InvariantViolation is one breached invariant (time, site,
	// expected/actual).
	InvariantViolation = invariant.Violation
	// InvariantRule identifies which invariant a violation breaches.
	InvariantRule = invariant.Rule
)

// Correctness harness constructors and helpers.
var (
	// NewInvariantChecker builds a checker (zero Config = defaults:
	// 1s sweeps, 5% fairness tolerance).
	NewInvariantChecker = invariant.New
	// FigureFairnessTol maps a figure scenario name to the fairness
	// tolerance appropriate for it.
	FigureFairnessTol = experiments.FigureFairnessTol
)

// Run executes a scenario to completion.
func Run(sc Scenario) (*Result, error) { return experiments.Run(sc) }

// ParseTopology reads a custom cloud description (see package
// internal/topospec for the format) for use as Scenario.Spec.
func ParseTopology(r io.Reader) (*TopologySpec, error) { return topospec.Parse(r) }

// ParseTopologyFile reads a custom cloud description from a file.
func ParseTopologyFile(path string) (*TopologySpec, error) { return topospec.ParseFile(path) }

// Scenario generation (packages internal/topogen, internal/trafficgen):
// parametric topologies and workloads for at-scale runs.
var (
	// ParseTopoGen reads the topology-generator CLI grammar
	// ("fattree:k=8,flows=48", "nclouds:n=3,remark=1", "mesh:nodes=8").
	ParseTopoGen = topogen.Parse
	// IsTopoGenSpec reports whether a -topo argument is a generator spec
	// rather than a topology file path.
	IsTopoGenSpec = topogen.IsSpec
	// ParseTrafficGen reads the workload-generator CLI grammar
	// ("heavytail:unresp=0.1,urate=350", "churn:heavy=0.25").
	ParseTrafficGen = trafficgen.Parse
	// ParseGenerate combines both grammars into a Scenario.Generate block.
	ParseGenerate = experiments.ParseGenerate
)

// ExpectedRatesAt solves the weighted max-min oracle for the flows active
// at time t under the scenario's schedule.
func ExpectedRatesAt(sc Scenario, t time.Duration) (map[int]float64, error) {
	return experiments.ExpectedRatesAt(sc, t)
}

// Figure scenario constructors and runners (paper §4). Each RunFigN
// executes the corresponding scenario and returns the series the paper
// plots.
var (
	Fig3Scenario  = experiments.Fig3Scenario
	Fig4Scenario  = experiments.Fig4Scenario
	Fig5Scenario  = experiments.Fig5Scenario
	Fig6Scenario  = experiments.Fig6Scenario
	Fig7Scenario  = experiments.Fig7Scenario
	Fig8Scenario  = experiments.Fig8Scenario
	Fig9Scenario  = experiments.Fig9Scenario
	Fig10Scenario = experiments.Fig10Scenario

	RunFig3  = experiments.RunFig3
	RunFig4  = experiments.RunFig4
	RunFig5  = experiments.RunFig5
	RunFig6  = experiments.RunFig6
	RunFig7  = experiments.RunFig7
	RunFig8  = experiments.RunFig8
	RunFig9  = experiments.RunFig9
	RunFig10 = experiments.RunFig10

	// FairnessAtScaleScenario / ChurnTailScenario are the generated
	// at-scale figures: a k=8 fat-tree under a heavy-tailed workload with
	// unresponsive blasters, and a k=4 fat-tree under churn plus a flash
	// crowd (take a Scheme, so each yields a Corelite and a CSFQ figure).
	FairnessAtScaleScenario = experiments.FairnessAtScaleScenario
	ChurnTailScenario       = experiments.ChurnTailScenario
	RunFairnessAtScale      = experiments.RunFairnessAtScale
	RunChurnTail            = experiments.RunChurnTail

	// AllFigures enumerates the figure scenarios.
	AllFigures = experiments.AllFigures
)

// Parallel run orchestration (package internal/run): scenarios are pure
// specs, the Pool executes batches of them on bounded workers, and
// results come back keyed by job order — so parallel output is
// byte-identical to serial output.
type (
	// Job pairs a name with the scenario spec to execute.
	Job = run.Job
	// JobResult is one job's outcome, in submission order.
	JobResult = run.Result
	// JobStats instruments one completed job (wall time, events,
	// packets forwarded/dropped, events/sec).
	JobStats = run.Stats
	// Pool executes job batches on bounded worker goroutines.
	Pool = run.Pool
	// PoolConfig parameterizes a Pool (worker bound, progress hook).
	PoolConfig = run.Config
)

// Pool constructors and helpers.
var (
	// NewPool returns a pool with the configured worker bound
	// (default GOMAXPROCS).
	NewPool = run.New
	// JobsFromScenarios wraps scenarios into jobs named after them.
	JobsFromScenarios = run.FromScenarios
	// DeriveSeed maps a base seed and a job name to a reproducible
	// per-job seed (for seed-replica batches).
	DeriveSeed = run.DeriveSeed
	// FirstJobErr returns the first failed job's error in a batch.
	FirstJobErr = run.FirstErr
)

// RunBatch executes jobs on a pool of parallel workers (<= 0 means
// GOMAXPROCS) and returns one result per job in submission order. A
// failing or panicking scenario fails only its own job.
func RunBatch(ctx context.Context, parallel int, jobs []Job) ([]JobResult, error) {
	return NewPool(PoolConfig{Workers: parallel}).Execute(ctx, jobs)
}

// FigureJobs returns the full figure evaluation batch as pool jobs:
// Figures 3-10 of the paper plus the generated at-scale figures.
func FigureJobs(seed int64) []Job {
	return JobsFromScenarios(AllFigures(seed)...)
}

// Sensitivity sweeps (the paper's §4.4 analysis).
type (
	// SweepPoint is one parameter variation.
	SweepPoint = experiments.SweepPoint
	// SweepResult summarizes one sweep run.
	SweepResult = experiments.SweepResult
)

// Sweep runners and canned parameter sets.
var (
	// Sweep runs a base scenario across parameter variations, serially.
	Sweep = experiments.Sweep
	// SweepScenarios expands a base scenario into one spec per point,
	// ready for RunBatch.
	SweepScenarios = experiments.SweepScenarios
	// SummarizeSweep condenses one sweep run into its table row.
	SummarizeSweep = experiments.Summarize
	// EpochSweep varies the congestion/adaptation epoch.
	EpochSweep = experiments.EpochSweep
	// QThreshSweep varies the congestion-detection threshold.
	QThreshSweep = experiments.QThreshSweep
	// LatencySweep varies the per-hop propagation latency.
	LatencySweep = experiments.LatencySweep
	// K1Sweep varies the marking constant.
	K1Sweep = experiments.K1Sweep
)

// Weight profiles from the paper.
var (
	// WeightsFig3 is the §4.1 profile.
	WeightsFig3 = topology.WeightsFig3
	// WeightsFig7 is the §4.3 profile.
	WeightsFig7 = topology.WeightsFig7
	// WeightsCeilHalf is the §4.2 profile (flow i weighs ⌈i/2⌉).
	WeightsCeilHalf = topology.WeightsCeilHalf
)

// SeriesKind selects which per-flow series WriteCSV exports.
type SeriesKind = trace.SeriesKind

// Output kinds for WriteCSV.
const (
	// SeriesAllowed exports the "alloted rate" series.
	SeriesAllowed = trace.SeriesAllowed
	// SeriesReceived exports egress goodput.
	SeriesReceived = trace.SeriesReceived
	// SeriesCumulative exports cumulative service.
	SeriesCumulative = trace.SeriesCumulative
)

// WriteCSV exports one per-flow series as CSV (one column per flow).
func WriteCSV(w io.Writer, res *Result, kind trace.SeriesKind) error {
	return trace.WriteCSV(w, res, kind)
}

// WriteSummary exports a human-readable per-flow summary.
func WriteSummary(w io.Writer, res *Result) error {
	return trace.WriteSummary(w, res)
}
