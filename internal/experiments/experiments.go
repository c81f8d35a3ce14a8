// Package experiments assembles complete simulation scenarios — topology,
// scheme (Corelite or weighted CSFQ), workload schedule, measurement — and
// provides one runner per figure of the paper's evaluation (§4).
package experiments

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/csfq"
	"repro/internal/flowsim"
	"repro/internal/host"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/topospec"
	"repro/internal/trafficgen"
	"repro/internal/workload"
)

// Scheme selects the QoS architecture under test.
type Scheme int

// Schemes.
const (
	// SchemeCorelite runs the paper's architecture.
	SchemeCorelite Scheme = iota + 1
	// SchemeCSFQ runs the weighted CSFQ baseline.
	SchemeCSFQ
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeCorelite:
		return "corelite"
	case SchemeCSFQ:
		return "csfq"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Scenario describes one experiment.
type Scenario struct {
	// Name labels the scenario in output.
	Name string
	// Scheme selects Corelite or CSFQ.
	Scheme Scheme
	// Backend selects the execution engine: the packet-level
	// discrete-event simulator (the zero-value default) or the flow-level
	// fluid engine. The flow backend rejects packet-only knobs (TCP
	// transports, tracing) at validation time.
	Backend Backend
	// Duration is the simulated time horizon.
	Duration time.Duration
	// Seed drives all randomness; identical seeds give identical traces.
	Seed int64

	// NumFlows selects how many of the paper-topology flow slots to use
	// (1–20).
	NumFlows int
	// Weights maps flow index (1-based) to rate weight.
	Weights map[int]float64
	// DefaultWeight applies to flows absent from Weights (0 → 1).
	DefaultWeight float64
	// Schedules maps flow index to its activity schedule; missing flows
	// are active for the whole run.
	Schedules map[int]workload.Schedule
	// MinRates maps flow index to a minimum rate contract in
	// packets/second (Corelite only): the edge never throttles the flow
	// below its contract and markers reflect only the excess rate.
	MinRates map[int]float64
	// Transports selects, per flow index, how packets are produced:
	// the default backlogged shaped source, or a TCP-Reno-like end-host
	// sender policed by the edge's per-flow shaper (Corelite only — the
	// paper's "agents like TCP" ongoing-work scenario).
	Transports map[int]Transport
	// TCP tunes the TCP transport (zero fields default).
	TCP host.TCPConfig
	// Cross adds unresponsive on/off background streams to core links —
	// the bursty, non-adaptive traffic the paper's sensitivity discussion
	// worries about (§2.2, §3.1). The oracle subtracts each stream's mean
	// rate from its link's capacity when computing expected rates.
	Cross []CrossTraffic
	// Unresponsive maps flow index -> constant blast rate in pkt/s for
	// flows that bypass edge shaping and ignore congestion feedback
	// entirely (the end-host misbehavior the paper's CSFQ comparison cares
	// about). Under Corelite the FIFO core cannot police them: the blast
	// takes its offered rate off the top of every link it crosses and the
	// oracle expects the responsive flows to share the residual. Under
	// CSFQ the blast is injected carrying its rate label and the cores
	// police it down to its weighted fair share; pick blast rates above
	// that share or the (demand-cap-free) oracle will overestimate it.
	// Either way the flow is excluded from the fairness residual.
	Unresponsive map[int]float64

	// SampleWindow is the measurement bin for the output series (0 → 1s,
	// the paper's plotting granularity).
	SampleWindow time.Duration

	// EdgeConfig / RouterConfig configure Corelite (zero values → paper
	// defaults).
	EdgeConfig   core.EdgeConfig
	RouterConfig core.RouterConfig
	// CSFQEdgeConfig / CSFQRouterConfig configure the baseline.
	CSFQEdgeConfig   csfq.EdgeConfig
	CSFQRouterConfig csfq.RouterConfig

	// TopologyOptions tweaks link rate/delay and the core queue
	// discipline; NumFlows/Weights/DefaultWeight above take precedence
	// over the corresponding fields.
	TopologyOptions topology.Options

	// Dumbbell, when true, uses the single-bottleneck topology instead of
	// the paper's Figure 2 chain.
	Dumbbell bool

	// Spec, when non-nil, builds a custom cloud from a parsed topology
	// description instead of the built-in topologies; NumFlows, Weights
	// and per-flow contracts are taken from the spec.
	Spec *topospec.Spec

	// Generate, when non-nil, builds the topology — and optionally the
	// workload — parametrically at normalization time (fat-trees, N-cloud
	// concatenations, meshes; heavy-tailed or churning traffic). It
	// expands into Spec/Schedules/Unresponsive before validation, so
	// generated scenarios run through exactly the same engine paths as
	// hand-written ones. Conflicts with Spec/Chain/Dumbbell.
	Generate *Generate

	// Chain, when non-nil, generates a synthetic chain topology instead
	// of the built-in or spec topologies (flow backend only — the chain
	// exists to scale past what a packet network can build). Flow weights
	// come from Weights/DefaultWeight, with flows absent from both
	// cycling through weights 1..5.
	Chain *ChainTopology

	// Tracer, when non-nil, receives every packet-level event
	// (enqueue/dequeue/receive/drop) in ns-2-like form.
	Tracer netem.Tracer

	// Obs, when non-nil, records control-plane telemetry for the run:
	// counters and gauges from every router plus the structured control
	// event stream. The registry must be fresh (one registry per run).
	Obs *obs.Registry
	// ObsSample is the simulated-time gauge sampling interval: 0 defaults
	// to 100 ms (the epoch length); negative disables time-series sampling
	// while keeping counters and events.
	ObsSample time.Duration

	// Check, when non-nil, attaches the runtime invariant checker: periodic
	// conservation/queue/marker sweeps during the run, a final sweep at the
	// horizon, and a fairness-residual comparison against the max-min
	// oracle over the last steady window. Like Obs, the checker must be
	// fresh (one checker per run); findings surface in Result.Violations.
	Check *invariant.Checker

	// Progress, when non-nil, receives live liveness updates (simulated
	// time, processed events, active flows) from the engine so a wall-clock
	// reporter goroutine can display run progress. Updates happen at
	// measurement boundaries only — never per event — and on the wall-clock
	// side of the zero-perturbation contract.
	Progress *obs.Progress
}

// Transport selects a flow's packet producer.
type Transport int

// Transports.
const (
	// TransportBacklogged is the paper's always-backlogged shaped source
	// (the default).
	TransportBacklogged Transport = iota
	// TransportTCP runs a TCP-Reno-like end host through the edge's
	// per-flow shaper.
	TransportTCP
)

// CrossTraffic describes one unresponsive on/off background stream
// crossing a single core link.
type CrossTraffic struct {
	// Link names the core link ("C1->C2", ..., or "A->B" on the
	// dumbbell).
	Link string
	// Rate is the ON-phase emission rate in packets/second.
	Rate float64
	// MeanOn / MeanOff are the exponential phase means; MeanOff = 0
	// yields constant-rate cross traffic.
	MeanOn  time.Duration
	MeanOff time.Duration
}

// MeanRate reports the stream's long-run average rate.
func (c CrossTraffic) MeanRate() float64 {
	total := c.MeanOn + c.MeanOff
	if total <= 0 {
		return c.Rate
	}
	return c.Rate * float64(c.MeanOn) / float64(total)
}

// Generate describes a parametrically generated scenario: a topogen
// topology plus an optional trafficgen workload laid over its flow slots.
// Both are pure functions of (config, Scenario.Seed), so a generated
// scenario replays and parallelizes exactly like a hand-written one.
type Generate struct {
	// Topo generates the topology spec (fattree/nclouds/mesh).
	Topo topogen.Config
	// Traffic, when non-nil, generates per-flow weights, activity
	// schedules and the unresponsive-flow set over the generated flow
	// slots; generated weights replace the spec's, and explicit
	// Scenario.Schedules/Unresponsive entries override generated ones.
	// Its Horizon defaults to the scenario duration.
	Traffic *trafficgen.Config
}

// ParseGenerate builds a Generate block from the CLI grammars — a topogen
// spec ("fattree:k=8,flows=48") plus an optional trafficgen spec
// ("heavytail:unresp=0.1,urate=350"). An empty topo spec with an empty
// traffic spec yields nil (no generation); a traffic spec without a
// generator topo spec (an empty topo or a spec file) is an error, since the
// workload models lay cohorts over generated flow slots.
func ParseGenerate(topo, traffic string) (*Generate, error) {
	if traffic != "" && !topogen.IsSpec(topo) {
		return nil, fmt.Errorf("-traffic %q needs a generator -topo (fattree/nclouds/mesh)", traffic)
	}
	if topo == "" {
		return nil, nil
	}
	tc, err := topogen.Parse(topo)
	if err != nil {
		return nil, err
	}
	g := &Generate{Topo: tc}
	if traffic != "" {
		wc, err := trafficgen.Parse(traffic)
		if err != nil {
			return nil, err
		}
		g.Traffic = &wc
	}
	return g, nil
}

// FlowResult carries everything measured for one flow.
type FlowResult struct {
	// Index is the paper flow number (1-based).
	Index int
	// Weight is the flow's rate weight.
	Weight float64
	// AllowedRate samples the edge's allowed rate b_g(f) once per window
	// (the quantity the paper's "alloted rate" figures plot).
	AllowedRate metrics.Series
	// ReceiveRate is the egress goodput per window.
	ReceiveRate metrics.Series
	// Cumulative is the egress cumulative packet count (Figure 4's
	// "cumulative service").
	Cumulative metrics.Series
	// Delivered and Losses are run totals.
	Delivered int64
	Losses    int64
}

// Result is a completed run.
type Result struct {
	// Name echoes the scenario name, Scheme the architecture.
	Name   string
	Scheme Scheme
	// Flows holds per-flow measurements in index order.
	Flows []FlowResult
	// TotalLosses sums packet losses over all flows.
	TotalLosses int64
	// ExpectedFullSet is the weighted max-min oracle with every flow
	// active.
	ExpectedFullSet map[int]float64
	// Events is the number of simulation events processed.
	Events uint64
	// SampleWindow echoes the measurement bin.
	SampleWindow time.Duration
	// Duration echoes the simulated horizon.
	Duration time.Duration
	// Violations holds the invariant checker's findings, nil when no
	// checker was attached (Scenario.Check) or when every check passed.
	Violations []invariant.Violation
	// TotalViolations counts every finding, including those past the
	// checker's retention cap that Violations does not hold.
	TotalViolations int64
	// InvariantChecks counts the individual invariant comparisons that ran
	// (0 when no checker was attached).
	InvariantChecks int64
}

// Flow returns the result for a flow index, or nil.
func (r *Result) Flow(index int) *FlowResult {
	for i := range r.Flows {
		if r.Flows[i].Index == index {
			return &r.Flows[i]
		}
	}
	return nil
}

// JainIndexAt computes Jain's fairness index over the normalized allowed
// rates of the flows active at time t.
func (r *Result) JainIndexAt(t time.Duration, sc Scenario) float64 {
	var norm []float64
	for _, f := range r.Flows {
		if !scheduleOf(sc, f.Index).ActiveAt(t, sc.Duration) {
			continue
		}
		if v, ok := f.AllowedRate.ValueAt(t); ok && f.Weight > 0 {
			norm = append(norm, v/f.Weight)
		}
	}
	return metrics.JainIndex(norm)
}

// scheduleOf resolves a flow's schedule (default: always active).
func scheduleOf(sc Scenario, index int) workload.Schedule {
	if s, ok := sc.Schedules[index]; ok {
		return s
	}
	return workload.Always()
}

// edgeAgent abstracts the per-scheme edge router so the harness can drive
// either uniformly.
type edgeAgent interface {
	AddFlow(dst string, weight float64) (int, error)
	StartFlow(local int) error
	StopFlow(local int) error
	AllowedRate(local int) (float64, error)
	FlowID(local int) (packet.FlowID, error)
	Start()
	Stop()
}

// buildCloud constructs the scenario's topology.
func buildCloud(sc Scenario, sched *sim.Scheduler) (*topology.Cloud, error) {
	if sc.Spec != nil {
		return sc.Spec.Build(sched)
	}
	opts := sc.TopologyOptions
	opts.NumFlows = sc.NumFlows
	opts.Weights = sc.Weights
	opts.DefaultWeight = sc.DefaultWeight
	if sc.Dumbbell {
		return topology.Dumbbell(sched, sc.NumFlows, sc.Weights, opts)
	}
	return topology.Paper(sched, opts)
}

// normalize expands a parametric Generate into its spec and workload, then
// folds the spec's flow set into the scenario fields so the rest of the
// harness (schedules, contracts, oracle) sees one consistent description.
func (sc Scenario) normalize() (Scenario, error) {
	if sc.Generate != nil {
		if sc.Spec != nil || sc.Chain != nil || sc.Dumbbell {
			return sc, fmt.Errorf("experiments: Generate conflicts with Spec/Chain/Dumbbell")
		}
		if sc.Backend == BackendPacket {
			nodes, links, flows, err := sc.Generate.Topo.Size()
			if err != nil {
				return sc, err
			}
			if err := checkPacketSize(nodes, links, flows); err != nil {
				return sc, err
			}
		}
		spec, err := sc.Generate.Topo.Generate(sc.Seed)
		if err != nil {
			return sc, err
		}
		if tc := sc.Generate.Traffic; tc != nil {
			cfg := *tc
			if cfg.Horizon == 0 {
				cfg.Horizon = sc.Duration
			}
			wl, err := cfg.Generate(sc.Seed, len(spec.Flows))
			if err != nil {
				return sc, err
			}
			for i := range spec.Flows {
				if w, ok := wl.Weights[spec.Flows[i].Index]; ok {
					spec.Flows[i].Weight = w
				}
			}
			if len(wl.Schedules) > 0 {
				merged := make(map[int]workload.Schedule, len(wl.Schedules)+len(sc.Schedules))
				for idx, s := range wl.Schedules {
					merged[idx] = s
				}
				// Explicit scenario entries override generated ones.
				for idx, s := range sc.Schedules {
					merged[idx] = s
				}
				sc.Schedules = merged
			}
			if len(wl.Unresponsive) > 0 {
				merged := make(map[int]float64, len(wl.Unresponsive)+len(sc.Unresponsive))
				for idx, r := range wl.Unresponsive {
					merged[idx] = r
				}
				for idx, r := range sc.Unresponsive {
					merged[idx] = r
				}
				sc.Unresponsive = merged
			}
		}
		sc.Spec = spec
	}
	if sc.Chain != nil && sc.NumFlows == 0 {
		sc.NumFlows = sc.Chain.Flows
	}
	if sc.Spec == nil {
		return sc, nil
	}
	sc.NumFlows = len(sc.Spec.Flows)
	sc.Weights = sc.Spec.Weights()
	mins := sc.Spec.MinRates()
	for idx, m := range sc.MinRates {
		mins[idx] = m
	}
	if len(mins) > 0 {
		sc.MinRates = mins
	}
	return sc, nil
}

// maxSeriesCells bounds the measurement series a run may allocate — three
// samples per flow per sample window on either backend — an order of
// magnitude above a million flows sampled 18 times (the 90 s / 5 s scale
// smoke).
const maxSeriesCells = 500_000_000

// A chain is held to the link and flow limits topogen applies to generated
// topologies, checked before its link names are built.
const (
	maxChainLinks = 75_000_000
	maxChainFlows = 10_000_000
)

// Build cost of a packet-backend cloud per node, link and flow, in bytes:
// what building a fat-tree cloud allocates (about 280, 550 and 1 700 with
// Go 1.24, from TestPacketBuildMemoryLinearInFlows), with half as much again
// for toolchains whose maps take more room. A packet scenario whose build
// alone would pass maxPacketBuildBytes is refused before anything is
// generated; the limit sits an order of magnitude above the largest packet
// scenario the repository targets (16 384 flows, about 110 MB).
const (
	packetBytesPerNode  = 400
	packetBytesPerLink  = 800
	packetBytesPerFlow  = 2500
	maxPacketBuildBytes = 1e9
)

// checkPacketSize refuses a packet-backend cloud of the given size whose
// build would pass maxPacketBuildBytes.
func checkPacketSize(nodes, links, flows float64) error {
	need := float64(nodes*packetBytesPerNode) + float64(links*packetBytesPerLink) + float64(flows*packetBytesPerFlow)
	if need > maxPacketBuildBytes {
		return fmt.Errorf("experiments: the packet backend would need about %.1f GB to build %.0f nodes, %.0f links and %.0f flows, over the limit of %.0f GB (the flow backend scales further)",
			need/1e9, nodes, links, flows, maxPacketBuildBytes/1e9)
	}
	return nil
}

// Validate checks scenario consistency.
func (sc Scenario) Validate() error {
	if sc.Scheme != SchemeCorelite && sc.Scheme != SchemeCSFQ {
		return fmt.Errorf("experiments: unknown scheme %d", int(sc.Scheme))
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("experiments: non-positive duration %v", sc.Duration)
	}
	window := sc.SampleWindow
	if window <= 0 {
		window = time.Second
	}
	windows := int64(sc.Duration / window)
	if cells := 3 * float64(sc.NumFlows) * float64(windows); cells > maxSeriesCells {
		return fmt.Errorf("experiments: %d flows over %d sample windows (duration %v / sample %v) need %.0f series cells, over the limit of %d",
			sc.NumFlows, windows, sc.Duration, window, cells, maxSeriesCells)
	}
	if sc.NumFlows <= 0 && sc.Spec == nil && sc.Generate == nil && sc.Chain == nil {
		return fmt.Errorf("experiments: non-positive NumFlows %d", sc.NumFlows)
	}
	if len(sc.MinRates) > 0 && sc.Scheme != SchemeCorelite {
		return fmt.Errorf("experiments: minimum rate contracts require the Corelite scheme")
	}
	for i, ct := range sc.Cross {
		if ct.Link == "" || ct.Rate <= 0 {
			return fmt.Errorf("experiments: cross stream %d needs a link and positive rate", i)
		}
	}
	for idx, m := range sc.MinRates {
		if m < 0 {
			return fmt.Errorf("experiments: flow %d has negative minimum rate %v", idx, m)
		}
	}
	for idx, tr := range sc.Transports {
		if tr == TransportTCP && sc.Scheme != SchemeCorelite {
			return fmt.Errorf("experiments: flow %d: TCP transport requires the Corelite scheme", idx)
		}
	}
	for idx, r := range sc.Unresponsive {
		if r <= 0 {
			return fmt.Errorf("experiments: unresponsive flow %d needs a positive blast rate, got %g", idx, r)
		}
		if sc.MinRates[idx] > 0 {
			return fmt.Errorf("experiments: unresponsive flow %d cannot carry a rate contract", idx)
		}
		if sc.Transports[idx] == TransportTCP {
			return fmt.Errorf("experiments: unresponsive flow %d cannot use the TCP transport", idx)
		}
	}
	if err := sc.validateFlowKeys(); err != nil {
		return err
	}
	if sc.Spec != nil {
		for _, f := range sc.Spec.Flows {
			if len(f.Relays) == 0 {
				continue
			}
			if sc.Scheme != SchemeCorelite {
				return fmt.Errorf("experiments: flow %d: re-marking relays require the Corelite scheme", f.Index)
			}
			if sc.Transports[f.Index] == TransportTCP {
				return fmt.Errorf("experiments: flow %d: re-marking relays cannot combine with the TCP transport", f.Index)
			}
			if _, u := sc.Unresponsive[f.Index]; u {
				return fmt.Errorf("experiments: flow %d: re-marking relays cannot apply to an unresponsive flow", f.Index)
			}
		}
	}
	if sc.Backend != BackendPacket && sc.Backend != BackendFlow {
		return fmt.Errorf("experiments: unknown backend %d", int(sc.Backend))
	}
	if sc.Backend == BackendPacket && sc.Spec != nil {
		if err := checkPacketSize(float64(len(sc.Spec.Nodes)), float64(len(sc.Spec.Links)), float64(len(sc.Spec.Flows))); err != nil {
			return err
		}
	}
	if sc.Backend == BackendFlow {
		for idx, tr := range sc.Transports {
			if tr == TransportTCP {
				return fmt.Errorf("experiments: flow %d: TCP transport requires the packet backend (the fluid model has no end-to-end congestion control loop)", idx)
			}
		}
		if sc.Tracer != nil {
			return fmt.Errorf("experiments: packet tracing requires the packet backend (the flow backend moves no packets)")
		}
	}
	if sc.Chain != nil {
		if sc.Backend != BackendFlow {
			return fmt.Errorf("experiments: the chain topology requires the flow backend")
		}
		if sc.Spec != nil || sc.Dumbbell {
			return fmt.Errorf("experiments: chain topology conflicts with Spec/Dumbbell")
		}
		if sc.Chain.Cores < 2 {
			return fmt.Errorf("experiments: chain needs at least 2 cores, got %d", sc.Chain.Cores)
		}
		if sc.Chain.Flows < 1 {
			return fmt.Errorf("experiments: chain needs at least 1 flow, got %d", sc.Chain.Flows)
		}
		if links := sc.Chain.Cores - 1; links > maxChainLinks {
			return fmt.Errorf("experiments: a chain of %d cores would generate %d links, over the limit of %d", sc.Chain.Cores, links, maxChainLinks)
		}
		if sc.Chain.Flows > maxChainFlows {
			return fmt.Errorf("experiments: a chain would generate %d flows, over the limit of %d", sc.Chain.Flows, maxChainFlows)
		}
	}
	return nil
}

// validateFlowKeys refuses a per-flow setting for a flow the scenario does
// not have: a spec's own (possibly sparse) indices, else 1..NumFlows, which
// normalize derives for chains. Generate scenarios have no flows before it.
func (sc Scenario) validateFlowKeys() error {
	has := func(idx int) bool { return idx >= 1 && idx <= sc.NumFlows }
	if sc.Spec != nil {
		flows := sc.Spec.Weights() // one entry per flow index
		has = func(idx int) bool { _, ok := flows[idx]; return ok }
	} else if sc.NumFlows <= 0 {
		return nil
	}
	return cmp.Or(strayFlow("weight", sc.Weights, has), strayFlow("schedule", sc.Schedules, has),
		strayFlow("minimum rate", sc.MinRates, has), strayFlow("transport", sc.Transports, has),
		strayFlow("unresponsive", sc.Unresponsive, has))
}

// strayFlow names the lowest key of m that is not a flow, so the message
// does not depend on map order.
func strayFlow[V any](what string, m map[int]V, has func(int) bool) error {
	bad, found := 0, false
	for idx := range m {
		if !has(idx) && (!found || idx < bad) {
			bad, found = idx, true
		}
	}
	if !found {
		return nil
	}
	return fmt.Errorf("experiments: %s for flow %d, which the scenario does not have", what, bad)
}

// runPacket executes sc on the packet-level discrete-event simulator: real
// netem links and queues, per-packet scheme machinery (markers, labels,
// drops), shaped sources or TCP hosts. It is the reference engine. sc
// arrives normalized and validated, with SampleWindow defaulted.
func runPacket(sc Scenario) (*Result, error) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(sc.Seed)
	cloud, err := buildCloud(sc, sched)
	if err != nil {
		return nil, fmt.Errorf("build topology: %w", err)
	}
	// The oracle runs before the first event, so contracts the links cannot
	// carry are refused without simulating.
	m, err := cloudModel(sc, cloud)
	if err != nil {
		return nil, fmt.Errorf("build flow model: %w", err)
	}
	expected, err := expectedRates(sc, m, nil)
	if err != nil {
		return nil, fmt.Errorf("expected rates: %w", err)
	}
	net := cloud.Net
	if sc.Tracer != nil {
		net.SetTracer(sc.Tracer)
	}
	var prof *sim.LoopProfiler
	if sc.Obs != nil {
		// Attach before router/edge construction: instruments are grabbed
		// once at construction time.
		net.SetObs(sc.Obs)
		every := sc.ObsSample
		if every == 0 {
			every = 100 * time.Millisecond
		}
		if every > 0 {
			sc.Obs.StartSampler(sched, every, sc.Duration)
		}
		// The event-loop profiler rides along with any attached registry:
		// per-kind event counts are exact, wall time is sampled every
		// stride-th event so the hot path stays within the overhead budget.
		prof = sim.NewLoopProfiler(0)
		sched.SetProfiler(prof)
	}
	sc.Progress.SetHorizon(sc.Duration)
	sc.Check.Attach(net)

	rec := metrics.NewFlowRecorder(sc.SampleWindow)

	// Per-flow bookkeeping. relaySeg is one re-marking segment of an
	// N-cloud through flow: a shaped slot on a gateway's Corelite edge that
	// re-shapes the flow into the next cloud's control domain.
	type relaySeg struct {
		edge  *core.Edge
		local int
	}
	type flowRef struct {
		placement topology.Placement
		agent     edgeAgent
		local     int
		id        packet.FlowID
		allowed   metrics.Series
		tcp       *host.Sender
		src       *workload.Pacer // raw unresponsive blaster (agent == nil)
		blast     float64
		relays    []relaySeg
	}
	refs := make([]*flowRef, 0, len(cloud.Placements))
	coreliteEdges := make(map[string]*core.Edge)
	csfqEdges := make(map[string]*csfq.Edge)

	// remap translates relay-segment flow ids back to the ingress id the
	// recorder tracks; origID applies it.
	remap := make(map[packet.FlowID]packet.FlowID)
	origID := func(id packet.FlowID) packet.FlowID {
		if orig, ok := remap[id]; ok {
			return orig
		}
		return id
	}
	recApp := deliverApp(func(p *packet.Packet) {
		rec.Deliver(origID(p.Flow), net.Now())
	})

	// relayRoutes dispatches packets arriving at a re-marking gateway: the
	// incoming segment's flow id selects the shaped slot that carries the
	// flow onward and the next segment's destination.
	type relayHop struct {
		edge  *core.Edge
		local int
		next  string
	}
	relayRoutes := make(map[packet.FlowID]relayHop)
	relayEdges := make(map[string]*core.Edge)
	relayApp := deliverApp(func(p *packet.Packet) {
		hop, ok := relayRoutes[p.Flow]
		if !ok {
			return
		}
		// Re-offer a fresh copy: the delivered packet returns to the pool,
		// and the copy carries no marker or label — the next cloud's edge
		// re-marks it under its own control loop.
		q := net.PacketPool().Get(p.Flow, hop.next, p.Seq, net.Now())
		q.SizeBytes = p.SizeBytes
		_, _ = hop.edge.Offer(hop.local, q)
	})

	for _, pl := range cloud.Placements {
		node := net.Node(pl.Ingress)
		if rate, unresp := sc.Unresponsive[pl.Index]; unresp {
			// Unresponsive blaster: a raw CBR source injected at the
			// ingress node, bypassing the edge entirely. Under CSFQ it
			// carries the label a CSFQ edge would converge to for a CBR
			// source (rate/weight), so the cores police it; under Corelite
			// it is unmarked and the FIFO cores cannot.
			src := workload.NewPacer(sched, workload.PacerConfig{
				Flow:   packet.FlowID{Edge: pl.Ingress, Local: pl.Index},
				Dst:    pl.Egress,
				Inject: node.Inject,
				Pool:   net.PacketPool(),
			})
			if sc.Scheme == SchemeCSFQ {
				label := rate / pl.Weight
				src.Decorate = func(p *packet.Packet) { p.Label = label }
			}
			net.Node(pl.Egress).SetApp(recApp)
			refs = append(refs, &flowRef{placement: pl, id: src.Flow(), src: src, blast: rate})
			continue
		}
		var agent edgeAgent
		var local int
		var tcpSender *host.Sender
		switch sc.Scheme {
		case SchemeCorelite:
			e := core.NewEdge(net, node, sc.EdgeConfig)
			coreliteEdges[pl.Ingress] = e
			sc.Check.ObserveEdge(e)
			agent = e
			if sc.Transports[pl.Index] == TransportTCP {
				local, err = e.AddShapedFlow(pl.Weight, sc.MinRates[pl.Index], 0)
				if err != nil {
					break
				}
				tcpSender, err = wireTCP(sc, net, e, local, pl, rec)
			} else {
				dst := pl.Egress
				if len(pl.Relays) > 0 {
					// Re-marked flows address one control segment at a
					// time: the ingress edge sends toward the first
					// gateway.
					dst = pl.Relays[0]
				}
				local, err = e.AddFlowContract(dst, pl.Weight, sc.MinRates[pl.Index])
			}
		case SchemeCSFQ:
			e := csfq.NewEdge(net, node, sc.CSFQEdgeConfig)
			csfqEdges[pl.Ingress] = e
			agent = e
			local, err = agent.AddFlow(pl.Egress, pl.Weight)
		}
		if err != nil {
			return nil, fmt.Errorf("flow %d: %w", pl.Index, err)
		}
		id, err := agent.FlowID(local)
		if err != nil {
			return nil, err
		}
		ref := &flowRef{placement: pl, agent: agent, local: local, id: id, tcp: tcpSender}
		if len(pl.Relays) > 0 && sc.Scheme == SchemeCorelite {
			prevID := id
			for ri, gw := range pl.Relays {
				re, ok := relayEdges[gw]
				if !ok {
					re = core.NewEdge(net, net.Node(gw), sc.EdgeConfig)
					relayEdges[gw] = re
					coreliteEdges[gw] = re
					sc.Check.ObserveEdge(re)
					net.Node(gw).SetApp(relayApp)
					re.Start()
				}
				seg, err := re.AddShapedFlow(pl.Weight, sc.MinRates[pl.Index], 0)
				if err != nil {
					return nil, fmt.Errorf("flow %d relay %s: %w", pl.Index, gw, err)
				}
				next := pl.Egress
				if ri+1 < len(pl.Relays) {
					next = pl.Relays[ri+1]
				}
				relayRoutes[prevID] = relayHop{edge: re, local: seg, next: next}
				segID, err := re.FlowID(seg)
				if err != nil {
					return nil, err
				}
				remap[segID] = id
				prevID = segID
				ref.relays = append(ref.relays, relaySeg{edge: re, local: seg})
			}
		}
		refs = append(refs, ref)
		if tcpSender == nil {
			net.Node(pl.Egress).SetApp(recApp)
		}
		agent.Start()
	}

	coreNodes := cloud.CoreNodes

	// A control message with no path back to its edge stops the run: the
	// flow's control loop would silently go open.
	var ctrlErr error
	onCtrlErr := func(err error) {
		if ctrlErr == nil {
			ctrlErr = err
			sched.Halt()
		}
	}

	// Core routers. Marker feedback and loss notifications travel the
	// network's control plane to the flow's ingress edge.
	switch sc.Scheme {
	case SchemeCorelite:
		for _, name := range coreNodes {
			node := net.Node(name)
			fb := core.ControlFeedback(net, node, coreliteEdges, onCtrlErr)
			r := core.NewRouter(net, node, sc.RouterConfig, rng.Stream("router-"+name), fb)
			sc.Check.ObserveRouter(r)
			r.Start()
		}
		// Corelite drops (expected only under unresponsive blasts) are
		// still recorded, attributed to the originating flow even when
		// they happen on a relay segment.
		net.OnDrop(func(d netem.Drop) { rec.Lose(origID(d.Packet.Flow)) })
	case SchemeCSFQ:
		for _, name := range coreNodes {
			csfq.NewRouter(net, net.Node(name), sc.CSFQRouterConfig, rng.Stream("router-"+name))
		}
		net.OnDrop(func(d netem.Drop) { rec.Lose(d.Packet.Flow) })
		net.OnDrop(csfq.LossNotifier(net, csfqEdges, onCtrlErr))
	}

	// Unresponsive cross traffic.
	for i, ct := range sc.Cross {
		link := cloud.CoreLinks[ct.Link] // cloudModel refused unknown names
		from := link.From()
		oo := workload.NewOnOff(sched, rng.Stream(fmt.Sprintf("cross-%d", i)), workload.OnOffConfig{
			Flow:    packet.FlowID{Edge: "cross", Local: i},
			Dst:     link.To().Name(),
			Rate:    ct.Rate,
			MeanOn:  ct.MeanOn,
			MeanOff: ct.MeanOff,
			Inject:  from.Inject,
			Pool:    net.PacketPool(),
		})
		oo.Start()
	}

	// Flow activity schedule.
	for _, ref := range refs {
		ref := ref
		startFlow := func() {
			if ref.src != nil {
				ref.src.Start(ref.blast)
				return
			}
			_ = ref.agent.StartFlow(ref.local)
			for _, rs := range ref.relays {
				_ = rs.edge.StartFlow(rs.local)
			}
			if ref.tcp != nil {
				ref.tcp.Start()
			}
		}
		stopFlow := func() {
			if ref.src != nil {
				ref.src.Stop()
				return
			}
			_ = ref.agent.StopFlow(ref.local)
			for _, rs := range ref.relays {
				_ = rs.edge.StopFlow(rs.local)
			}
			if ref.tcp != nil {
				ref.tcp.Stop()
			}
		}
		for _, iv := range scheduleOf(sc, ref.placement.Index) {
			stop := iv.Stop
			if stop == 0 || stop > sc.Duration {
				stop = sc.Duration
			}
			if iv.Start >= stop {
				continue
			}
			sched.MustAt(iv.Start, startFlow)
			if stop < sc.Duration {
				sched.MustAt(stop, stopFlow)
			}
		}
	}

	// Measurement: flush windows and sample allowed rates.
	sched.MustAt(sc.SampleWindow, func() {
		sched.MarkHandler(sim.KindMeasure)
		now := net.Now()
		rec.Flush(now)
		for _, ref := range refs {
			var rate float64
			if ref.src != nil {
				// Unresponsive flows have no allowed rate; report the
				// offered blast while the source is on.
				if ref.src.Active() {
					rate = ref.blast
				}
			} else if r, err := ref.agent.AllowedRate(ref.local); err == nil {
				rate = r
			}
			ref.allowed = append(ref.allowed, metrics.Sample{At: now, Value: rate})
		}
		if sc.Progress != nil {
			active := 0
			for _, ref := range refs {
				if scheduleOf(sc, ref.placement.Index).ActiveAt(now, sc.Duration) {
					active++
				}
			}
			sc.Progress.Update(now, sched.Processed(), active)
		}
		if now < sc.Duration {
			sched.RescheduleAfter(sc.SampleWindow)
		}
	})
	sc.Check.Start(sched, sc.Duration)

	err = sched.Run(sc.Duration)
	if ctrlErr != nil {
		err = fmt.Errorf("control plane: %w", ctrlErr)
	}
	if err != nil {
		return nil, fmt.Errorf("run scenario %q: %w", sc.Name, err)
	}
	// Final structural sweep at the horizon (the periodic sweeps stop at
	// the last multiple of the interval).
	sc.Check.Sweep(net.Now())
	if prof != nil {
		stats := prof.Snapshot()
		perf := make([]obs.PerfStat, 0, len(stats))
		for _, st := range stats {
			perf = append(perf, obs.PerfStat{
				Kind:        st.Kind.String(),
				Events:      st.Events,
				WallSeconds: st.EstWall.Seconds(),
				Sampled:     st.Sampled,
			})
		}
		sc.Obs.RecordPerf(perf)
	}
	sc.Progress.Update(sc.Duration, sched.Processed(), 0)
	sc.Progress.MarkDone()

	res := &Result{
		Name:            sc.Name,
		Scheme:          sc.Scheme,
		ExpectedFullSet: expected,
		Events:          sched.Processed(),
		SampleWindow:    sc.SampleWindow,
		Duration:        sc.Duration,
		Flows:           make([]FlowResult, 0, len(refs)),
	}
	for _, ref := range refs {
		fr := FlowResult{
			Index:       ref.placement.Index,
			Weight:      ref.placement.Weight,
			AllowedRate: ref.allowed,
			ReceiveRate: rec.Rate(ref.id),
			Cumulative:  rec.Cumulative(ref.id),
			Delivered:   rec.Total(ref.id),
			Losses:      rec.Losses(ref.id),
		}
		res.TotalLosses += fr.Losses
		res.Flows = append(res.Flows, fr)
	}
	if sc.Check.Enabled() {
		checkFairness(sc, m, res)
		res.Violations = sc.Check.Violations()
		res.TotalViolations = int64(len(res.Violations)) + sc.Check.Overflow()
		res.InvariantChecks = sc.Check.Checks()
	}
	return res, nil
}

// ExpectedRatesAt solves the max-min oracle for the flows active at time t
// under the scenario's schedule (the paper's per-phase expected values). The
// scenario is prepared as Run prepares it, so a scenario Run refuses comes
// back with Run's error.
func ExpectedRatesAt(sc Scenario, t time.Duration) (map[int]float64, error) {
	sc, err := sc.prepare()
	if err != nil {
		return nil, err
	}
	m, err := buildFlowModel(sc)
	if err != nil {
		return nil, err
	}
	active := activeAt(sc, m.Flows, t)
	if len(active) == 0 {
		return map[int]float64{}, nil
	}
	return expectedRates(sc, m, active)
}

// expectedRates is the weighted max-min oracle, for either engine: the
// allocation of the active flows (nil = all) over the capacity graph, whose
// capacities already account for the mean load of cross traffic. Contracted
// flows hold their floors (Flow.MinRate) and share the excess; everyone
// water-fills with unbounded demand. Unresponsive flows are treated per
// scheme (see Scenario.Unresponsive): Corelite's FIFO core cannot police a
// blast, so it takes its offered rate off the top of every link it crosses
// and the responsive flows share the residual; CSFQ polices it by label, so
// it stays an ordinary weighted member.
//
// Contracts are admitted here: active floors that over-subscribe a link are
// an error naming the link. Every subset of an admitted set is admitted, so
// a scenario whose full set passes never fails later on a phase.
func expectedRates(sc Scenario, m *flowsim.Model, active map[int]bool) (map[int]float64, error) {
	links := make([]flowsim.Link, len(m.Links))
	copy(links, m.Links)
	act := make([]bool, len(m.Flows))
	dem := make([]float64, len(m.Flows))
	out := make(map[int]float64, len(m.Flows))
	for i, f := range m.Flows {
		if active != nil && !active[f.Index] {
			continue
		}
		if f.FixedDemand > 0 && sc.Scheme == SchemeCorelite {
			for _, li := range f.Links {
				links[li].Capacity = math.Max(0, links[li].Capacity-f.FixedDemand)
			}
			out[f.Index] = f.FixedDemand
			continue
		}
		act[i] = true
		dem[i] = -1
	}
	if len(sc.MinRates) > 0 {
		free := make([]float64, len(links))
		for li := range links {
			free[li] = links[li].Capacity
		}
		for i, f := range m.Flows {
			if !act[i] || f.MinRate <= 0 {
				continue
			}
			for _, li := range f.Links {
				if free[li] -= f.MinRate; free[li] < 0 {
					return nil, fmt.Errorf("experiments: contracted minimums over-subscribe link %q", links[li].Name)
				}
			}
		}
	}
	rates := flowsim.SolveMaxMin(&flowsim.Model{Links: links, Flows: m.Flows}, act, dem)
	for i, f := range m.Flows {
		if act[i] {
			out[f.Index] = rates[i]
		}
	}
	return out, nil
}

// wireTCP connects a TCP-Reno-like sender and receiver around a Corelite
// shaped flow: segments are offered to the edge's shaper, data is recorded
// at the egress, and cumulative ACKs ride the real reverse path back to
// the ingress node.
func wireTCP(sc Scenario, net *netem.Network, e *core.Edge, local int, pl topology.Placement, rec *metrics.FlowRecorder) (*host.Sender, error) {
	id, err := e.FlowID(local)
	if err != nil {
		return nil, err
	}
	sender, err := host.NewSender(net.Scheduler(), host.SenderConfig{
		Flow: id,
		Dst:  pl.Egress,
		TCP:  sc.TCP,
		Transmit: func(p *packet.Packet) bool {
			ok, offerErr := e.Offer(local, p)
			return offerErr == nil && ok
		},
		Pool: net.PacketPool(),
	})
	if err != nil {
		return nil, err
	}
	recv := host.NewReceiver(net.Scheduler(), pl.Ingress, func(ack *packet.Packet) {
		net.Node(pl.Egress).Inject(ack)
	})
	recv.Pool = net.PacketPool()
	net.Node(pl.Egress).SetApp(deliverApp(func(p *packet.Packet) {
		if p.Kind == packet.KindData {
			rec.Deliver(p.Flow, net.Now())
		}
		recv.Deliver(p)
	}))
	net.Node(pl.Ingress).SetApp(deliverApp(func(p *packet.Packet) {
		if p.Kind == packet.KindAck {
			sender.OnAck(p.Seq)
		}
	}))
	return sender, nil
}

// deliverApp adapts a closure to netem.App.
type deliverApp func(*packet.Packet)

// Receive implements netem.App.
func (f deliverApp) Receive(p *packet.Packet) { f(p) }
