package flowsim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/adapt"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Control selects how the fluid control loop generates congestion
// indications.
type Control int

const (
	// ControlMarker models Corelite: a congested link requests enough
	// marker feedback to shed its offered excess, and each flow's share of
	// that feedback is proportional to its marker rate (b−min)/w — the
	// weighted-fair selection of paper §3.2. The edge applies the maximum
	// over the path's links (m(f) of §2.2); the core drops nothing.
	ControlMarker Control = iota + 1
	// ControlLoss models CSFQ: indications are the packets dropped during
	// the epoch, i.e. (demand − achieved) · epoch, and the drops count as
	// losses.
	ControlLoss
)

// String implements fmt.Stringer.
func (c Control) String() string {
	switch c {
	case ControlMarker:
		return "marker"
	case ControlLoss:
		return "loss"
	default:
		return fmt.Sprintf("Control(%d)", int(c))
	}
}

// solverMode selects how the engine re-solves the water-filling allocation
// after events change the flow set or the demands. Only the package's tests
// force a mode; every run outside them uses solverAuto.
type solverMode int

const (
	// solverAuto (the default) picks per model: models with at least
	// IncrementalMinFlows flows use the incremental dirty-set solver,
	// smaller ones the monolithic full solve. Keeping small models on the
	// full solve costs nothing (a full solve at figure scale is
	// microseconds) and guarantees their output is bitwise identical across
	// solver modes — the paper figures never depend on the incremental
	// machinery.
	solverAuto solverMode = iota
	// solverFull forces the monolithic solve after every change — the
	// differential reference the incremental solver is tested against.
	solverFull
	// solverIncremental forces the dirty-set solver regardless of model
	// size (agreement with solverFull is within 1e-9, not bitwise, once
	// regional re-solves occur).
	solverIncremental
)

// IncrementalMinFlows is the model size at which solverAuto switches from
// the monolithic solve to the incremental dirty-set solver.
const IncrementalMinFlows = 256

// ViolationKind classifies a fluid-model invariant breach.
type ViolationKind int

const (
	// KindConservation: a link's achieved rates sum above its capacity.
	KindConservation ViolationKind = iota + 1
	// KindBounds: a per-flow rate out of bounds (negative, above the
	// allowed rate, or an allowed rate below the contract floor).
	KindBounds
	// KindWaste: a flow held below its demand crosses no saturated link,
	// so the allocation left capacity unused that the flow could have had.
	KindWaste
)

// Violation is one breached fluid invariant. The engine has no packet
// network to sweep, so it verifies its own model algebra — conservation,
// rate bounds and non-wastefulness — and reports breaches through
// Config.OnViolation.
type Violation struct {
	At       time.Duration
	Kind     ViolationKind
	Site     string
	Expected float64
	Actual   float64
	Detail   string
}

// Config parameterizes one engine run.
type Config struct {
	// Model is the capacity graph and flow set (required).
	Model *Model
	// Horizon is the simulated duration (required).
	Horizon time.Duration
	// Epoch is the LIMD control period (0 → 100 ms, the paper's epoch).
	Epoch time.Duration
	// SampleWindow is the measurement bin for the output series (0 → 1s).
	SampleWindow time.Duration
	// Control selects the Corelite (marker) or CSFQ (loss) recurrence.
	Control Control
	// Adapt parameterizes the per-flow controllers (zero → paper
	// defaults); MinRate is overridden per flow from the model.
	Adapt adapt.Config
	// solver forces an allocation strategy in the package's tests; the
	// zero value is solverAuto.
	solver solverMode
	// Schedules holds one activity schedule per model flow (nil entries
	// and a nil slice mean always active).
	Schedules []workload.Schedule
	// OnViolation, when non-nil, receives fluid invariant breaches.
	OnViolation func(Violation)
	// OnChecks, when non-nil, is told how many invariant comparisons ran
	// (called once per check batch).
	OnChecks func(n int64)
	// Obs, when non-nil, records fluid-engine telemetry: per-flow rate and
	// phase gauges, per-link alpha/fn gauges, epoch, feedback and
	// solver-tier counters, the wall-clock water-filling solve-time
	// histograms, and the engine's self-profile (perf.csv: events and wall
	// seconds of the epoch, solve and flush layers; see obs.go).
	// The registry must be fresh (one registry per run). Attaching it never
	// changes the Output — instruments are sampled at existing epoch
	// boundaries and schedule no events of their own.
	Obs *obs.Registry
	// ObsSample is the gauge sampling interval, rounded to whole epochs:
	// 0 samples every epoch, negative disables the time series while
	// keeping counters and histograms.
	ObsSample time.Duration
	// Progress, when non-nil, receives live liveness updates (simulated
	// time, events, active flows, flow-seconds) at measurement flushes for
	// a wall-clock reporter goroutine to read.
	Progress *obs.Progress
}

// FlowOutput carries one flow's measured series, mirroring the packet
// harness's FlowRecorder shape.
type FlowOutput struct {
	// Allowed samples the controller's allowed rate b_g(f) once per
	// window.
	Allowed metrics.Series
	// Rate is the achieved (delivered) rate per window.
	Rate metrics.Series
	// Cumulative is the delivered fluid volume in packets.
	Cumulative metrics.Series
	// Delivered and Lost are run totals in (fractional) packets.
	Delivered float64
	Lost      float64
}

// Output is a completed fluid run.
type Output struct {
	// Flows is indexed like Model.Flows.
	Flows []FlowOutput
	// Events is the number of engine events processed.
	Events uint64
	// solver is the water-filler the run solved on, handed over for the
	// caller's oracle solves.
	solver *Solver
}

// Solver returns the water-filler the run built for its model, so a caller
// solves more allocations over the same model (the oracle) without building
// a second one. The engine is done with it: the floors it raised for
// blasters under the marker control are the model's again.
func (o *Output) Solver() *Solver { return o.solver }

// Event priorities: at equal timestamps departures free capacity first, then
// arrivals join, then the control epoch observes the new membership, and the
// measurement flush reads the post-control state last. The ordering is part
// of the engine contract (tested in flowsim_test.go) so that, e.g., a flow
// arriving exactly on an epoch boundary is throttled by that epoch rather
// than escaping control for a full period.
const (
	prioDeparture = iota
	prioArrival
	prioEpoch
	prioFlush
)

// event is one entry in the engine's time/priority-ordered event list.
type event struct {
	at   time.Duration
	prio int8
	seq  int32 // FIFO tie-break within (at, prio)
	flow int32 // arrival/departure target
}

// eventCmp orders events by (at, prio, seq).
func eventCmp(a, b event) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.prio != b.prio {
		return cmp.Compare(a.prio, b.prio)
	}
	return cmp.Compare(a.seq, b.seq)
}

// engine is one run's mutable state.
type engine struct {
	cfg   Config
	m     *Model
	alloc *allocator

	active  []bool
	fixed   []bool    // unresponsive flows (Flow.FixedDemand > 0)
	demand  []float64 // controller allowed rates
	cur     []float64 // achieved water-filling rates
	ctrl    []adapt.Controller
	cum     []float64 // delivered volume integral
	lost    []float64 // dropped volume integral (ControlLoss)
	cumPrev []float64 // cum at the previous flush
	fb      []float64 // fractional-indication accumulators (see epoch)
	minRate []float64 // contract floors, the allocator's dense array

	// liveBits mirrors active as a bitset (arrivals and departures in step
	// write both), so the control epoch visits live flows only — in ascending
	// index order, which is the order the dense scan added them in.
	liveBits []uint64

	// Lazy integration (incremental solver only): the solver writes achieved
	// rates into rates, and cur mirrors it flow by flow as the engine settles
	// each touched flow's delivered/lost integrals up to lastSec. Untouched
	// flows keep integrating lazily from advT — advance() stays O(1) per
	// event instead of sweeping every active flow. In monolithic mode rates
	// aliases cur and advance() integrates eagerly (bitwise-identical to the
	// pre-incremental engine, which is what keeps small-scale figures
	// byte-stable).
	rates   []float64
	advT    []float64 // per-flow last integration time, seconds
	lastSec float64   // lastT in seconds, maintained by advance

	// Marker control epoch state. A link two or more flows cross is shared;
	// a link exactly one flow crosses is that flow's private link, and its
	// sums would only ever hold that flow's own demand and marker rate.
	// Shared links have dense ids 0..len(sharedLink)-1 in ascending link
	// order, and sharedLink maps an id back to its model link. Flow i's
	// shared links are the ids hops[hopOff[i]:hopOff[i+1]], and privCap[i]
	// is the lowest capacity among its private links (+Inf if it has none).
	// An epoch records each live flow's demand and marker rate in epochD
	// and mr; a departure zeroes mr.
	//
	// The per-link arrays below are indexed by shared id. Invariant between
	// epochs: sumDemand, sumMark and linkFn are zero and linkSeen false on
	// every shared link outside touched, the shared links under a flow that
	// was live at the last epoch; the next epoch resets exactly those.
	// nCongested counts the shared links whose F_n is positive. A private
	// link's F_n is never stored: linkFeedback derives it from its flow.
	hops       []int32
	hopOff     []int32
	privCap    []float64
	epochD     []float64
	mr         []float64
	weight     []float64 // Flow.Weight, dense for markerRate
	beta       float64   // the controllers' β, 1 if unset
	nCongested int
	sharedLink []int32   // model link of each shared id, ascending
	sumDemand  []float64 // demand sums
	sumMark    []float64 // marker-rate sums
	linkFn     []float64 // feedback volume of the last epoch
	linkCap    []float64 // capacity, flat for the epoch's link pass
	touched    []int32
	linkSeen   []bool
	checkSum   []float64 // per-link conservation scratch (checkers only)

	// Change-set threading: every event that may move a flow's demand or
	// membership marks the flow, and the pre-flush solve consumes the batch.
	// An empty batch skips the solve entirely (slow-start epochs between
	// doublings change nothing), and the incremental solver re-solves only
	// what the batch touches.
	incremental bool
	changed     []int32
	changedMark []bool

	lastT time.Duration
	out   *Output
	// events is the whole run's event list: schedule() builds and sorts it,
	// step consumes it front to back, and nothing is inserted in between.
	events []event
	// Work the current timestamp batch has asked for once it is solved.
	flushPending, samplePending bool

	// Liveness bookkeeping (Progress) and observability hooks (Obs). All
	// instrument pointers are nil-receiver-safe, so the hot path pays a nil
	// check at most.
	nActive     int
	flowSec     float64 // ∫ active dt, simulated flow-seconds
	flowSecSent float64 // portion already published to Progress
	// solveHist is set for the two solve layers.
	solveHist   [numLayers]*obs.Histogram
	ctrEpochs   *obs.Counter
	ctrCong     *obs.Counter
	ctrFeedback *obs.Counter
	ctrTouched  *obs.Counter
	ctrTier     [numTiers]*obs.Counter
	obsEvery    int // gauge sampling cadence in epochs; 0 = off
	epochN      int
	// profiled turns on the self-profile: perf counts and times every
	// epoch, solve and flush (Obs only).
	profiled bool
	perf     [numLayers]layerPerf
}

// Run executes the fluid model to the horizon.
func Run(cfg Config) (*Output, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.attachObs()
	progress := e.cfg.Progress
	progress.SetHorizon(e.cfg.Horizon)

	e.schedule()
	e.run()
	progress.Update(e.cfg.Horizon, e.out.Events, 0)
	progress.AddFlowSec(e.flowSec - e.flowSecSent)
	e.flowSecSent = e.flowSec
	progress.MarkDone()
	e.recordPerf()
	for i := range e.out.Flows {
		e.out.Flows[i].Delivered = e.cum[i]
		e.out.Flows[i].Lost = e.lost[i]
		if e.fixed[i] {
			e.minRate[i] = e.m.Flows[i].MinRate
		}
	}
	return e.out, nil
}

// newEngine validates cfg, applies its defaults and allocates one run's
// state; nothing is scheduled yet.
func newEngine(cfg Config) (*engine, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("flowsim: nil model")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("flowsim: non-positive horizon %v", cfg.Horizon)
	}
	if cfg.Control != ControlMarker && cfg.Control != ControlLoss {
		return nil, fmt.Errorf("flowsim: unknown control %d", int(cfg.Control))
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 100 * time.Millisecond
	}
	if cfg.SampleWindow <= 0 {
		cfg.SampleWindow = time.Second
	}
	if cfg.Adapt == (adapt.Config{}) {
		cfg.Adapt = adapt.DefaultConfig()
	}
	if cfg.Schedules != nil && len(cfg.Schedules) != len(cfg.Model.Flows) {
		return nil, fmt.Errorf("flowsim: %d schedules for %d flows",
			len(cfg.Schedules), len(cfg.Model.Flows))
	}

	n := len(cfg.Model.Flows)
	nLinks := len(cfg.Model.Links)
	solver := NewSolver(cfg.Model)
	e := &engine{
		cfg:      cfg,
		m:        cfg.Model,
		alloc:    solver.a,
		liveBits: make([]uint64, (n+63)/64),
		ctrl:     make([]adapt.Controller, n),
		out:      &Output{Flows: make([]FlowOutput, n), solver: solver},
	}
	marker := cfg.Control == ControlMarker
	e.incremental = cfg.solver == solverIncremental ||
		(cfg.solver == solverAuto && n >= IncrementalMinFlows)

	// The per-flow and per-link arrays of one element type are carved from
	// one backing array per type.
	bools := make([]bool, 3*n)
	e.active, e.fixed, e.changedMark = carve(&bools, n, n), carve(&bools, n, n), carve(&bools, n, n)
	nf := 6
	if marker {
		nf += 4
	}
	if e.incremental {
		nf += 2
	}
	floats := make([]float64, nf*n)
	for _, p := range []*[]float64{&e.demand, &e.cur, &e.cum, &e.lost, &e.cumPrev, &e.fb} {
		*p = carve(&floats, n, n)
	}
	if e.incremental {
		e.alloc.enableIncremental()
		e.rates, e.advT = carve(&floats, n, n), carve(&floats, n, n)
	} else {
		e.rates = e.cur
	}

	// Unresponsive flows under the marker control ride the allocator's
	// contract-floor machinery: a FIFO core cannot police traffic that
	// bypasses edge shaping, so the fixed demand is pre-allocated off the
	// top exactly like a contracted floor and responsive flows water-fill
	// the remainder. The loss control leaves FixedDemand as an ordinary
	// demand cap — CSFQ's per-label policing holds the flow to its
	// weighted share. Only the allocator's dense floors change; the
	// caller's Model stays untouched.
	e.minRate = e.alloc.minRate
	for i := range e.ctrl {
		f := &cfg.Model.Flows[i]
		ac := cfg.Adapt
		ac.MinRate = f.MinRate
		e.ctrl[i] = *adapt.NewController(ac)
		e.fixed[i] = f.FixedDemand > 0
		if e.fixed[i] && marker {
			e.minRate[i] = f.FixedDemand
		}
	}

	if !marker {
		e.changed = make([]int32, 0, n)
	} else {
		// Split every flow's links into shared and private ones (see
		// engine) by the allocator's link→flow adjacency.
		a := e.alloc
		shared := func(li int) bool { return a.lfStart[li+1]-a.lfStart[li] > 1 }
		nShared, nHops := 0, 0
		for li := 0; li < nLinks; li++ {
			if shared(li) {
				nShared++
				nHops += int(a.lfStart[li+1] - a.lfStart[li])
			}
		}
		ints := make([]int32, n+2*nShared+nHops+n+1)
		e.changed = carve(&ints, 0, n)
		e.touched = carve(&ints, 0, nShared)
		e.sharedLink = carve(&ints, 0, nShared)
		e.hops = carve(&ints, nHops, nHops)
		e.hopOff = carve(&ints, n+1, n+1)
		for _, p := range []*[]float64{&e.privCap, &e.epochD, &e.mr, &e.weight} {
			*p = carve(&floats, n, n)
		}
		perShared := make([]float64, 4*nShared)
		for _, p := range []*[]float64{&e.sumDemand, &e.sumMark, &e.linkFn, &e.linkCap} {
			*p = carve(&perShared, 0, nShared)
		}
		for li := 0; li < nLinks; li++ {
			if shared(li) {
				e.sharedLink = append(e.sharedLink, int32(li))
				e.sumDemand = append(e.sumDemand, 0)
				e.sumMark = append(e.sumMark, 0)
				e.linkFn = append(e.linkFn, 0)
				e.linkCap = append(e.linkCap, cfg.Model.Links[li].Capacity)
			}
		}
		k := int32(0)
		for i := range cfg.Model.Flows {
			f := &cfg.Model.Flows[i]
			e.hopOff[i] = k
			e.privCap[i] = math.Inf(1)
			for _, li := range f.Links {
				if shared(li) {
					e.hops[k] = e.sharedID(li)
					k++
				} else if c := cfg.Model.Links[li].Capacity; c < e.privCap[i] {
					e.privCap[i] = c
				}
			}
			e.weight[i] = f.Weight
		}
		e.hopOff[n] = k
		e.linkSeen = make([]bool, nShared)
		e.beta = cfg.Adapt.Beta
		if e.beta <= 0 {
			e.beta = 1
		}
	}
	if cfg.OnViolation != nil || cfg.OnChecks != nil {
		e.checkSum = make([]float64, nLinks)
	}
	// The 3·F measurement series are carved out of one slab (300k separate
	// allocations otherwise dominate a 100k-flow run), kind by kind so each
	// CSV reads one contiguous third. The engine flushes exactly nsamp times;
	// the three-index slices make an append beyond that reallocate instead of
	// running into the neighbour. The Output owns the slab.
	nsamp := int(cfg.Horizon / cfg.SampleWindow)
	slab := make([]metrics.Sample, 3*n*nsamp)
	series := func(kind, i int) metrics.Series {
		lo := (kind*n + i) * nsamp
		return slab[lo : lo : lo+nsamp]
	}
	for i := range e.out.Flows {
		f := &e.out.Flows[i]
		f.Allowed, f.Rate, f.Cumulative = series(0, i), series(1, i), series(2, i)
	}
	return e, nil
}

// carve cuts the next n elements off *slab and returns them as a slice of
// length l and capacity n.
func carve[T any](slab *[]T, l, n int) []T {
	s := (*slab)[:l:n]
	*slab = (*slab)[n:]
	return s
}

// sharedLinks lists flow i's shared links by shared id (marker control).
func (e *engine) sharedLinks(i int) []int32 { return e.hops[e.hopOff[i]:e.hopOff[i+1]] }

// sharedID is shared link li's dense id (marker control).
func (e *engine) sharedID(li int) int32 {
	id, _ := slices.BinarySearch(e.sharedLink, int32(li))
	return int32(id)
}

// linkFeedback is link li's feedback volume F_n as of the last epoch, what
// the fn/<link> gauge reads at epoch boundaries. A shared link's is stored;
// a private link's is the per-link expression over its one flow's sums,
// 0 + d and 0 + mr — zero unless that flow was live at the epoch, since a
// departure zeroes mr. A link no flow crosses has none.
func (e *engine) linkFeedback(li int) float64 {
	switch flows := e.alloc.flowsOn(li); len(flows) {
	case 0:
		return 0
	case 1:
		o := flows[0]
		if excess := e.epochD[o] - e.m.Links[li].Capacity; excess > 0 && e.mr[o] > 0 {
			return excess / e.beta
		}
		return 0
	}
	return e.linkFn[e.sharedID(li)]
}

// alwaysActive is the schedule of a flow Config.Schedules gives none; it is
// shared and only read.
var alwaysActive = workload.Always()

// schedule builds the event list — per-flow activity windows, control
// epochs and measurement flushes — and sorts it once by (at, prio, seq),
// seq being the order of creation.
func (e *engine) schedule() {
	horizon := e.cfg.Horizon
	e.events = make([]event, 0,
		2*len(e.m.Flows)+int(horizon/e.cfg.Epoch)+int(horizon/e.cfg.SampleWindow))
	push := func(ev event) {
		ev.seq = int32(len(e.events))
		e.events = append(e.events, ev)
	}
	for i := range e.m.Flows {
		var sched workload.Schedule
		if e.cfg.Schedules != nil {
			sched = e.cfg.Schedules[i]
		}
		if sched == nil {
			sched = alwaysActive
		}
		for _, iv := range sched {
			stop := iv.Stop
			if stop == 0 || stop > horizon {
				stop = horizon
			}
			if iv.Start >= stop {
				continue
			}
			push(event{at: iv.Start, prio: prioArrival, flow: int32(i)})
			if stop < horizon {
				push(event{at: stop, prio: prioDeparture, flow: int32(i)})
			}
		}
	}
	for t := e.cfg.Epoch; t <= horizon; t += e.cfg.Epoch {
		push(event{at: t, prio: prioEpoch})
	}
	for t := e.cfg.SampleWindow; t <= horizon; t += e.cfg.SampleWindow {
		push(event{at: t, prio: prioFlush})
	}
	slices.SortFunc(e.events, eventCmp)
}

// markChanged adds flow i to the batch the next solve consumes.
func (e *engine) markChanged(i int) {
	if !e.changedMark[i] {
		e.changedMark[i] = true
		e.changed = append(e.changed, int32(i))
	}
}

// run consumes the event list. Events at the same timestamp are processed in
// priority order and the allocation is re-solved once per timestamp batch
// whose events changed membership or demands (a batch that changed nothing
// — a slow-start epoch between doublings, say — skips the solve: the
// allocation is a pure function of the unchanged memberships and demands).
func (e *engine) run() {
	for len(e.events) > 0 {
		e.step()
	}
	e.advance(e.cfg.Horizon)
	if e.incremental {
		e.integrateAll()
	}
}

// step processes the next event and, when it is the last of its timestamp,
// closes the batch: solve, then the gauge sample and the measurement flush
// the batch's events asked for.
func (e *engine) step() {
	ev := e.events[0]
	e.events = e.events[1:]
	e.advance(ev.at)
	e.out.Events++
	switch ev.prio {
	case prioDeparture:
		i := int(ev.flow)
		if e.incremental {
			// Settle the integrals at the pre-departure demand before it
			// is zeroed (the solve settles the rate itself).
			e.integrate(i)
		}
		if !e.fixed[i] {
			e.ctrl[i].Stop()
		}
		e.active[i] = false
		e.liveBits[i>>6] &^= 1 << (uint(i) & 63)
		e.demand[i] = 0
		e.fb[i] = 0
		e.nActive--
		e.markChanged(i)
		if e.mr != nil {
			// The flow's private links carry no feedback once it has left
			// (the next epoch would reset a shared link the same way).
			e.mr[i] = 0
		}
	case prioArrival:
		i := int(ev.flow)
		if e.incremental {
			// Skip the inactive span: rate and loss were zero while off.
			e.advT[i] = e.lastSec
		}
		e.active[i] = true
		e.liveBits[i>>6] |= 1 << (uint(i) & 63)
		if e.fixed[i] {
			// Unresponsive: the demand is pinned; no slow-start, no
			// controller.
			e.demand[i] = e.cfg.Model.Flows[i].FixedDemand
		} else {
			e.ctrl[i].Start(ev.at)
			e.demand[i] = e.ctrl[i].Rate()
		}
		e.fb[i] = 0
		e.nActive++
		e.markChanged(i)
	case prioEpoch:
		t0 := e.clock()
		e.epoch(ev.at)
		e.lap(layerEpoch, t0)
		if e.obsEvery > 0 {
			e.epochN++
			if e.epochN%e.obsEvery == 0 {
				e.samplePending = true
			}
		}
	case prioFlush:
		e.flushPending = true
	}
	if len(e.events) > 0 && e.events[0].at == ev.at {
		return
	}
	e.solve()
	if e.samplePending {
		// Gauge snapshot at the epoch boundary, after the re-solve, on
		// the engine's own event — no extra events, no model reads that
		// could perturb integration intervals.
		e.cfg.Obs.Sample(ev.at)
		e.samplePending = false
	}
	if e.flushPending {
		t0 := e.clock()
		e.flush(ev.at)
		e.lap(layerFlush, t0)
		e.flushPending = false
	}
}

// solve consumes the pending change batch and re-runs the water-filling
// allocation — incrementally over the affected region when the incremental
// solver is selected, monolithically otherwise — timing it (wall clock)
// under the self-profile. An empty batch is a no-op.
func (e *engine) solve() {
	if len(e.changed) == 0 {
		return
	}
	t0 := e.clock()
	layer := layerSolveFull
	if e.incremental {
		touched, full := e.alloc.solveIncremental(e.active, e.demand, e.rates, e.changed)
		e.ctrTouched.Add(int64(touched))
		for k, n := range e.alloc.incr.tally {
			if n != 0 {
				e.ctrTier[k].Add(int64(n))
			}
		}
		// Settle each rewritten flow's integrals at its old rate, then adopt
		// the new one; everything else keeps integrating lazily.
		if full {
			for i := range e.cur {
				e.integrate(i)
				e.cur[i] = e.rates[i]
			}
		} else {
			layer = layerSolveIncr
			for _, fi := range e.alloc.incr.touchedList {
				i := int(fi)
				e.integrate(i)
				e.cur[i] = e.rates[i]
			}
		}
	} else {
		e.alloc.solve(e.active, e.demand, e.cur)
		e.ctrTouched.Add(int64(len(e.m.Flows)))
	}
	e.solveHist[layer].Observe(e.lap(layer, t0).Seconds())
	for _, fi := range e.changed {
		e.changedMark[fi] = false
	}
	e.changed = e.changed[:0]
}

// advance integrates the piecewise-constant rates up to t. Under the
// incremental solver the per-flow integrals are settled lazily (integrate /
// integrateAll) and only the O(1) aggregates move here; monolithic mode
// sweeps every active flow eagerly, exactly as before the incremental path
// existed.
func (e *engine) advance(t time.Duration) {
	dt := (t - e.lastT).Seconds()
	if dt <= 0 {
		return
	}
	e.lastT = t
	e.lastSec = t.Seconds()
	e.flowSec += float64(float64(e.nActive) * dt)
	if e.incremental {
		return
	}
	loss := e.cfg.Control == ControlLoss
	for i, on := range e.active {
		if !on {
			continue
		}
		e.cum[i] += float64(e.cur[i] * dt)
		// Unresponsive flows keep blasting at their fixed demand under
		// either scheme, so whatever the allocation does not carry is lost.
		if loss || e.fixed[i] {
			if excess := e.demand[i] - e.cur[i]; excess > 0 {
				e.lost[i] += float64(excess * dt)
			}
		}
	}
}

// integrate settles flow i's delivered/lost integrals up to lastSec using
// its current rate and demand. Callers must invoke it before either the
// flow's rate (cur) or — for flows that accrue loss — its demand changes;
// rate and demand are piecewise-constant between those call sites, which is
// what makes the deferred integral exact.
func (e *engine) integrate(i int) {
	if dt := e.lastSec - e.advT[i]; dt > 0 {
		e.cum[i] += float64(e.cur[i] * dt)
		if e.cfg.Control == ControlLoss || e.fixed[i] {
			if excess := e.demand[i] - e.cur[i]; excess > 0 {
				e.lost[i] += float64(excess * dt)
			}
		}
	}
	e.advT[i] = e.lastSec
}

// integrateAll settles every flow's integrals up to lastSec — measurement
// flushes and the end of the run need globally consistent cum values.
func (e *engine) integrateAll() {
	for i := range e.cum {
		e.integrate(i)
	}
}

// markerRate is the rate at which flow i's edge stamps markers onto its
// stream: the out-of-profile rate per unit weight, (b − min)/w (the K1
// spacing constant cancels out of the per-link feedback shares).
func (e *engine) markerRate(i int) float64 {
	mr := (e.demand[i] - e.minRate[i]) / e.weight[i]
	if mr < 0 {
		return 0
	}
	return mr
}

// epoch runs one LIMD control period ending at now and steps every active
// controller.
//
// ControlMarker: each link offered more demand than capacity requests
// excess/β marker feedbacks — the volume that sheds its excess in one
// period, the fluid stand-in for the packet core's congestion estimator,
// which sizes F_n to drain the queue the excess built (§3.1) — and splits
// them across its flows proportionally to their marker rates (b−min)/w,
// exactly how the packet core's weighted-fair selector distributes bounces.
// A flow's indication count is the maximum over its path links (m(f), §2.2).
// ControlLoss: a flow's indications are its dropped packets,
// (demand − achieved)·epoch.
//
// Indications are then quantized through a per-flow accumulator: the
// controller is stepped with zero until a whole indication has built up,
// mirroring the discreteness of real marker/loss streams. The quantization
// matters at flow restart — a small flow's expected feedback share is ≪ 1
// marker per epoch, so it keeps slow-starting instead of being halved by an
// infinitesimal indication — and in equilibrium, where sub-marker feedback
// arrives as occasional whole markers between loss-free (increasing)
// epochs, just as at a packet edge.
//
// Both passes walk liveBits, so an epoch costs O(live flows · span), not
// O(flows + links). Ascending bit order is the dense scan's order, which
// keeps every per-link floating-point sum — and so every result — bit for
// bit what the dense sweep produced. Pass 1 computes each live flow's
// marker rate once and sums demands and marker rates on shared links only;
// pass 2 derives a private link's F_n from its one flow, which is exact
// because a one-term sum starting at zero is that term, and skips the
// shared links when none of them is congested.
func (e *engine) epoch(now time.Duration) {
	epochSec := e.cfg.Epoch.Seconds()
	marker := e.cfg.Control == ControlMarker
	if marker {
		for _, li := range e.touched {
			e.sumDemand[li], e.sumMark[li], e.linkFn[li] = 0, 0, 0
			e.linkSeen[li] = false
		}
		e.touched = e.touched[:0]
		for w, word := range e.liveBits {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				mr := e.markerRate(i)
				e.epochD[i], e.mr[i] = e.demand[i], mr
				for _, li := range e.sharedLinks(i) {
					if !e.linkSeen[li] {
						e.linkSeen[li] = true
						e.touched = append(e.touched, li)
					}
					e.sumDemand[li] += e.demand[i]
					e.sumMark[li] += mr
				}
			}
		}
		// Per-link feedback volume F_n = excess/β, computed once per
		// shared link (the fn/<link> gauges read it between epochs). A
		// link under no live flow has no marker mass to split, so its F_n
		// stays the 0 it was reset to.
		e.nCongested = 0
		for _, li := range e.touched {
			excess := e.sumDemand[li] - e.linkCap[li]
			if excess > 0 && e.sumMark[li] > 0 {
				e.linkFn[li] = excess / e.beta
				if e.linkFn[li] > 0 {
					e.nCongested++
				}
			}
		}
	}
	anyInd := false
	for w, word := range e.liveBits {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if e.fixed[i] {
				// Unresponsive flows ignore feedback: their demand never moves.
				continue
			}
			var ind float64
			if marker {
				mr := e.mr[i]
				if mr > 0 && e.nCongested > 0 {
					for _, li := range e.sharedLinks(i) {
						if e.linkFn[li] <= 0 {
							continue
						}
						if share := e.linkFn[li] * mr / e.sumMark[li]; share > ind {
							ind = share
						}
					}
				}
				// A private link's sums would be 0 + d and 0 + mr, so its
				// F_n and share are the shared-link expressions with this
				// flow's own values put in. Each step is monotone in the
				// excess d − C, so the slowest private link gives the
				// largest share, and it is the only one evaluated.
				if excess := e.demand[i] - e.privCap[i]; excess > 0 && mr > 0 {
					fn := excess / e.beta
					if share := fn * mr / mr; share > ind {
						ind = share
					}
				}
			} else if excess := e.demand[i] - e.cur[i]; excess > 0 {
				ind = excess * epochSec
			}
			if ind > 0 {
				anyInd = true
			}
			e.fb[i] += ind
			ind = 0
			if e.fb[i] >= 1 {
				ind = e.fb[i]
				e.fb[i] = 0
				e.ctrFeedback.Add(int64(ind))
			}
			if next := e.ctrl[i].OnEpoch(now, ind); next != e.demand[i] {
				if e.incremental && !marker {
					// Loss accrues against the demand, so settle the integrals at
					// the old demand before it moves (under the marker control
					// only fixed flows accrue loss and their demand never moves).
					e.integrate(i)
				}
				e.demand[i] = next
				e.markChanged(i)
			}
		}
	}
	e.ctrEpochs.Inc()
	if anyInd {
		e.ctrCong.Inc()
	}
}

// flush closes one measurement window at t: append the window's series
// samples and run the fluid invariant checks.
func (e *engine) flush(t time.Duration) {
	if e.incremental {
		e.integrateAll()
	}
	window := e.cfg.SampleWindow.Seconds()
	for i := range e.out.Flows {
		f := &e.out.Flows[i]
		allowed := e.ctrl[i].Rate()
		if e.fixed[i] {
			allowed = e.demand[i] // pinned while active, zero otherwise
		}
		f.Allowed = append(f.Allowed, metrics.Sample{At: t, Value: allowed})
		f.Rate = append(f.Rate, metrics.Sample{At: t, Value: (e.cum[i] - e.cumPrev[i]) / window})
		f.Cumulative = append(f.Cumulative, metrics.Sample{At: t, Value: e.cum[i]})
		e.cumPrev[i] = e.cum[i]
	}
	if e.cfg.Progress != nil {
		e.cfg.Progress.Update(t, e.out.Events, e.nActive)
		e.cfg.Progress.AddFlowSec(e.flowSec - e.flowSecSent)
		e.flowSecSent = e.flowSec
	}
	e.check(t)
}

// check verifies the fluid invariants at t: per-link conservation of the
// achieved rates, per-flow rate bounds, and non-wastefulness — a flow held
// more than wasteEps below its demand must cross a link whose achieved sum
// is within wasteEps of capacity (the first half of the max-min
// certificate; it is what an all-zero or uniformly scaled-down allocation
// fails).
func (e *engine) check(t time.Duration) {
	if e.cfg.OnViolation == nil && e.cfg.OnChecks == nil {
		return
	}
	var checks int64
	report := func(v Violation) {
		if e.cfg.OnViolation != nil {
			e.cfg.OnViolation(v)
		}
	}
	const relEps, wasteEps = 1e-9, 1e-6
	// One pass over the flows accumulates every link's conservation sum —
	// O(F·span + L), which is what keeps `-check` viable at 100k flows.
	for li := range e.checkSum {
		e.checkSum[li] = 0
	}
	for i, on := range e.active {
		if !on {
			continue
		}
		for _, li := range e.m.Flows[i].Links {
			e.checkSum[li] += e.cur[i]
		}
	}
	for li := range e.m.Links {
		checks++
		sum := e.checkSum[li]
		capacity := e.m.Links[li].Capacity
		if sum > float64(capacity*(1+relEps))+relEps {
			report(Violation{At: t, Kind: KindConservation, Site: e.m.Links[li].Name,
				Expected: capacity, Actual: sum,
				Detail: "achieved rates sum above link capacity"})
		}
	}
	for i, on := range e.active {
		if !on {
			continue
		}
		checks += 2
		if e.cur[i] < -relEps {
			report(Violation{At: t, Kind: KindBounds, Site: fmt.Sprintf("flow %d", e.m.Flows[i].Index),
				Expected: 0, Actual: e.cur[i], Detail: "negative achieved rate"})
		}
		bound := math.Max(e.demand[i], e.minRate[i])
		if e.cur[i] > float64(bound*(1+relEps))+relEps {
			report(Violation{At: t, Kind: KindBounds, Site: fmt.Sprintf("flow %d", e.m.Flows[i].Index),
				Expected: bound, Actual: e.cur[i],
				Detail: "achieved rate above allowed rate"})
		}
		if e.cur[i] < e.demand[i]*(1-wasteEps) {
			checks++
			if detail := e.unsaturated(i, wasteEps); detail != "" {
				report(Violation{At: t, Kind: KindWaste, Site: fmt.Sprintf("flow %d", e.m.Flows[i].Index),
					Expected: e.demand[i], Actual: e.cur[i], Detail: detail})
			}
		}
		if min := e.minRate[i]; min > 0 {
			checks++
			if e.demand[i] < min*(1-relEps) {
				report(Violation{At: t, Kind: KindBounds, Site: fmt.Sprintf("flow %d", e.m.Flows[i].Index),
					Expected: min, Actual: e.demand[i],
					Detail: "allowed rate below contract floor"})
			}
		}
	}
	if e.cfg.OnChecks != nil {
		e.cfg.OnChecks(checks)
	}
}

// unsaturated returns "" when flow i crosses a link whose conservation sum
// (checkSum) is within eps of its capacity, and otherwise a violation detail
// naming its most loaded path link (highest sum/capacity).
func (e *engine) unsaturated(i int, eps float64) string {
	worst, util := -1, 0.0
	for _, li := range e.m.Flows[i].Links {
		c := e.m.Links[li].Capacity
		if e.checkSum[li] >= c*(1-eps) {
			return ""
		}
		if u := e.checkSum[li] / c; worst < 0 || u > util {
			worst, util = li, u
		}
	}
	if worst < 0 {
		return "achieved rate below demand on a path with no link"
	}
	l := &e.m.Links[worst]
	return fmt.Sprintf("achieved rate below demand on a path with no saturated link (most loaded: %s at %g of %g)",
		l.Name, e.checkSum[worst], l.Capacity)
}
