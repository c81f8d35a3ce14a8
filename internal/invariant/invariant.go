// Package invariant implements a runtime correctness harness for the
// simulated cloud: a zero-perturbation checker that can be attached to any
// experiment run and that enforces, at configurable simulated-time intervals
// and again at run end, the structural invariants every correct simulation
// must satisfy:
//
//   - Packet and byte conservation, network-wide and per link: everything
//     injected is delivered, dropped, or still held by some link
//     (queued, in service, or propagating).
//   - Queue sanity: occupancy within the configured DropTail capacity,
//     monitor agreement with the actual queue, non-negative and
//     correctly-ordered counters.
//   - Marker accounting in the Corelite core: markers stamped by edges equal
//     markers delivered, dropped, or in flight, and each marker cache holds
//     exactly the markers inserted minus those evicted.
//   - Fairness residual: achieved per-flow goodput over the final steady
//     window stays within a configurable tolerance of the analytical
//     weighted max-min allocation (the differential oracle).
//
// The checker follows the same nil-receiver convention as obs.Registry:
// every method on a nil *Checker is a no-op, so call sites need no guards
// and a detached run pays nothing. Sweeps read counters only — they draw no
// randomness and mutate no model state — so attaching a checker cannot
// change a run's measured series.
package invariant

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// Rule identifies which invariant a violation breaches.
type Rule int

const (
	// RulePacketConservation: network-wide packet conservation
	// (injected == delivered + dropped + Σ links in flight).
	RulePacketConservation Rule = iota + 1
	// RuleByteConservation: the byte-level counterpart.
	RuleByteConservation
	// RuleLinkAccounting: per-link counter consistency
	// (enqueued − transmitted == queue length + busy, ordering, sign).
	RuleLinkAccounting
	// RuleQueueBounds: queue occupancy within the discipline's capacity and
	// monitor agreement with the actual queue.
	RuleQueueBounds
	// RuleMarkerAccounting: Corelite marker conservation and cache
	// accounting (inserted == held + evicted).
	RuleMarkerAccounting
	// RuleFairness: per-flow goodput deviates from the weighted max-min
	// oracle by more than the configured tolerance.
	RuleFairness
	// RulePool: packet-pool accounting (no double releases; packets live in
	// the pool's bookkeeping cover at least the packets the links hold).
	RulePool
	// RuleFluidConservation: flow-backend link conservation (the sum of
	// achieved fluid rates on a link never exceeds its capacity).
	RuleFluidConservation
	// RuleFluidBounds: flow-backend per-flow rate sanity (achieved rates
	// non-negative and never above the flow's allowed rate; allowed rates
	// respect the contract floor).
	RuleFluidBounds
	// RuleFluidWaste: flow-backend non-wastefulness (a flow held below its
	// demand crosses a saturated link).
	RuleFluidWaste
)

// String names the rule for reports.
func (r Rule) String() string {
	switch r {
	case RulePacketConservation:
		return "packet-conservation"
	case RuleByteConservation:
		return "byte-conservation"
	case RuleLinkAccounting:
		return "link-accounting"
	case RuleQueueBounds:
		return "queue-bounds"
	case RuleMarkerAccounting:
		return "marker-accounting"
	case RuleFairness:
		return "fairness"
	case RulePool:
		return "pool-accounting"
	case RuleFluidConservation:
		return "fluid-conservation"
	case RuleFluidBounds:
		return "fluid-bounds"
	case RuleFluidWaste:
		return "fluid-waste"
	default:
		return fmt.Sprintf("rule(%d)", int(r))
	}
}

// Violation is one breached invariant, reported as structured data rather
// than a panic so batch drivers can aggregate and surface it through their
// normal result path.
type Violation struct {
	// At is the simulated time of the sweep that caught the breach.
	At time.Duration
	// Rule identifies the invariant.
	Rule Rule
	// Site locates the breach (a link name, node name, or "flow N").
	Site string
	// Expected and Actual are the two sides of the failed comparison.
	Expected float64
	Actual   float64
	// Detail is a human-readable elaboration.
	Detail string
}

// String renders the violation on one line.
func (v Violation) String() string {
	return fmt.Sprintf("t=%v %s at %s: expected %g, got %g (%s)",
		v.At, v.Rule, v.Site, v.Expected, v.Actual, v.Detail)
}

// Config tunes the checker. The zero value is a sensible default.
type Config struct {
	// Every is the interval between periodic sweeps in simulated time.
	// Zero means 1s; negative disables periodic sweeps (the run-end sweep
	// still fires).
	Every time.Duration
	// FairnessTol is the maximum relative deviation of measured goodput
	// from the max-min oracle before a RuleFairness violation is recorded.
	// Zero means 0.05 (5%).
	FairnessTol float64
	// MinSteady is the shortest steady-state window over which the
	// fairness residual is meaningful: shorter windows still carry the
	// schemes' convergence transient (rates ramp additively from the
	// slow-start exit, which takes 10–20 simulated seconds on the paper
	// topology), so the check is skipped rather than reporting noise.
	// Zero means 40s of simulated time.
	MinSteady time.Duration
	// MaxViolations caps how many violations are retained; further ones
	// are counted but dropped. Zero means 64.
	MaxViolations int
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.Every == 0 {
		c.Every = time.Second
	}
	if c.FairnessTol == 0 {
		c.FairnessTol = 0.05
	}
	if c.MinSteady == 0 {
		c.MinSteady = 40 * time.Second
	}
	if c.MaxViolations == 0 {
		c.MaxViolations = 64
	}
	return c
}

// FlowRate is one flow's oracle-vs-measured comparison point for the
// fairness check.
type FlowRate struct {
	// Index is the flow's scenario index (for the violation site).
	Index int
	// Expected is the analytical weighted max-min rate; Measured is the
	// achieved goodput over the steady window. Any rate unit works as long
	// as both sides agree (the experiment harness uses packets/second).
	Expected float64
	Measured float64
}

// Checker verifies simulation invariants against a live network. A nil
// Checker is a valid no-op; construct real ones with New.
type Checker struct {
	cfg     Config
	net     *netem.Network
	routers []*core.Router
	edges   []*core.Edge

	violations []Violation
	overflow   int64
	checks     int64
}

// New builds a checker with cfg's zero fields resolved to defaults.
func New(cfg Config) *Checker {
	return &Checker{cfg: cfg.withDefaults()}
}

// Enabled reports whether the checker is live (non-nil).
func (c *Checker) Enabled() bool { return c != nil }

// Config returns the resolved configuration (zero value when nil).
func (c *Checker) Config() Config {
	if c == nil {
		return Config{}
	}
	return c.cfg
}

// Attach points the checker at the network under test. Call once, after the
// topology is built and before the run starts.
func (c *Checker) Attach(net *netem.Network) {
	if c == nil {
		return
	}
	c.net = net
}

// ObserveRouter registers a Corelite core router for marker-cache
// accounting checks.
func (c *Checker) ObserveRouter(r *core.Router) {
	if c == nil || r == nil {
		return
	}
	c.routers = append(c.routers, r)
}

// ObserveEdge registers a Corelite edge so stamped markers can be
// reconciled against the network-wide marker counters.
func (c *Checker) ObserveEdge(e *core.Edge) {
	if c == nil || e == nil {
		return
	}
	c.edges = append(c.edges, e)
}

// Start arms repeating sweep events every cfg.Every of simulated time up to
// horizon. Like obs.Registry.StartSampler, the events only read state, so
// arming them cannot perturb the run. The run-end sweep is the caller's
// responsibility (drivers call Sweep once more after the scheduler drains).
func (c *Checker) Start(sched *sim.Scheduler, horizon time.Duration) {
	if c == nil || sched == nil || c.cfg.Every <= 0 {
		return
	}
	every := c.cfg.Every
	hid := sched.RegisterHandler(func(uint32) {
		sched.MarkHandler(sim.KindMeasure)
		now := sched.Now()
		c.Sweep(now)
		if now+every <= horizon {
			sched.RescheduleAfter(every)
		}
	})
	sched.PostHandler(every, hid, 0)
}

// Report records an externally detected violation, honoring the retention
// cap. Engines without a packet network to sweep (the flow backend) verify
// their own model invariants and surface findings through this entry point
// so batch drivers see one uniform violation stream.
func (c *Checker) Report(v Violation) {
	if c == nil {
		return
	}
	c.record(v)
}

// AddChecks counts n externally run invariant comparisons (the flow
// backend's fluid-model checks), so Checks reflects work done by engines
// that do not go through the structural sweep path.
func (c *Checker) AddChecks(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.checks += n
}

// record appends a violation, honoring the retention cap.
func (c *Checker) record(v Violation) {
	if len(c.violations) >= c.cfg.MaxViolations {
		c.overflow++
		return
	}
	c.violations = append(c.violations, v)
}

// check runs one comparison and records a violation when it fails. want/got
// are compared exactly (the structural invariants are integer identities).
func (c *Checker) check(at time.Duration, rule Rule, site string, want, got int64, detail string) {
	c.checks++
	if want == got {
		return
	}
	c.record(Violation{At: at, Rule: rule, Site: site,
		Expected: float64(want), Actual: float64(got), Detail: detail})
}

// checkMin records a violation when got < min.
func (c *Checker) checkMin(at time.Duration, rule Rule, site string, min, got int64, detail string) {
	c.checks++
	if got >= min {
		return
	}
	c.record(Violation{At: at, Rule: rule, Site: site,
		Expected: float64(min), Actual: float64(got), Detail: detail})
}

// checkMax records a violation when got > max.
func (c *Checker) checkMax(at time.Duration, rule Rule, site string, max, got int64, detail string) {
	c.checks++
	if got <= max {
		return
	}
	c.record(Violation{At: at, Rule: rule, Site: site,
		Expected: float64(max), Actual: float64(got), Detail: detail})
}

// Sweep runs every structural check against the attached network at
// simulated time now. Safe to call between scheduler events at any time:
// node processing is synchronous, so all counters are consistent at event
// boundaries.
func (c *Checker) Sweep(now time.Duration) {
	if c == nil || c.net == nil {
		return
	}
	ns := c.net.Stats()

	// Network-wide conservation: every packet (and byte) injected is
	// delivered, dropped, or still held by some link.
	var inFlight, inFlightBytes int64
	for _, l := range c.net.Links() {
		ls := l.Stats()
		c.perLink(now, l, ls)
		inFlight += ls.InFlight()
		inFlightBytes += ls.InFlightBytes()
	}
	c.check(now, RulePacketConservation, "network",
		ns.Injected, ns.Delivered+ns.Dropped+inFlight,
		fmt.Sprintf("injected=%d delivered=%d dropped=%d in-flight=%d",
			ns.Injected, ns.Delivered, ns.Dropped, inFlight))
	c.check(now, RuleByteConservation, "network",
		ns.InjectedBytes, ns.DeliveredBytes+ns.DroppedBytes+inFlightBytes,
		fmt.Sprintf("injected=%dB delivered=%dB dropped=%dB in-flight=%dB",
			ns.InjectedBytes, ns.DeliveredBytes, ns.DroppedBytes, inFlightBytes))

	c.markerSweep(now, ns, inFlight)
	c.poolSweep(now, inFlight)
}

// poolSweep reconciles the network's packet-pool counters. A double release
// would recycle a packet still in flight and corrupt the run, so it is always
// a violation. The live count (handed out minus released) must cover at least
// the packets the links hold: more live than in flight is legal (edge shapers
// hold packets outside any link, and a discipline that discards without a
// drop notification leaks to the GC), but fewer means a packet was released
// while a link still owned it. The lower bound is only sound while no foreign
// (non-pool) packets circulate, so it applies only when the pool is actually
// in use and no foreign release has been seen.
func (c *Checker) poolSweep(now time.Duration, inFlight int64) {
	ps := c.net.PacketPool().Stats()
	c.check(now, RulePool, "pool", 0, ps.DoubleReleased,
		"packet released to the pool twice")
	c.checkMax(now, RulePool, "pool", ps.Gets(), ps.Released,
		"more packets released than handed out")
	c.checkMax(now, RulePool, "pool", ps.MarkerAllocated+ps.MarkerRecycled, ps.MarkerReleased,
		"more markers released than handed out")
	if ps.Gets() > 0 && ps.Foreign == 0 {
		c.checkMin(now, RulePool, "pool", inFlight, ps.Live(),
			fmt.Sprintf("pool live(%d) below packets in flight(%d): premature release",
				ps.Live(), inFlight))
	}
}

// perLink checks the counters of one link.
func (c *Checker) perLink(now time.Duration, l *netem.Link, ls netem.LinkStats) {
	site := l.Name()
	qlen := int64(l.Queue().Len())

	// Counter ordering and sign.
	c.checkMin(now, RuleLinkAccounting, site, 0, ls.InFlight(), "in-flight packets negative")
	c.checkMin(now, RuleLinkAccounting, site, ls.Arrived, ls.Transmitted,
		"arrived exceeds transmitted")
	c.checkMin(now, RuleLinkAccounting, site, ls.Transmitted, ls.Enqueued,
		"transmitted exceeds enqueued")
	c.checkMin(now, RuleLinkAccounting, site, 0, ls.DroppedOverflow, "overflow counter negative")

	// Exact occupancy: a dequeued packet occupies the transmitter until its
	// service completes, so the link holds queue + (busy ? 1 : 0) packets
	// that have not yet been transmitted.
	held := qlen
	if l.Busy() {
		held++
	}
	c.check(now, RuleLinkAccounting, site, held, ls.Enqueued-ls.Transmitted,
		fmt.Sprintf("enqueued−transmitted must equal queue(%d)+in-service", qlen))

	// Queue bounds: occupancy within the DropTail capacity (AQM disciplines
	// have soft limits and are skipped), monitor tracking the real queue.
	if dt, ok := l.Queue().(*netem.DropTail); ok {
		c.checkMax(now, RuleQueueBounds, site, int64(dt.Capacity()), qlen,
			"queue occupancy exceeds capacity")
	}
	c.check(now, RuleQueueBounds, site, qlen, int64(l.Monitor().Length()),
		"queue monitor disagrees with queue length")
}

// markerSweep reconciles Corelite marker counters. All checks are bounds or
// identities that hold for CSFQ too (where every marker counter is zero).
func (c *Checker) markerSweep(now time.Duration, ns netem.NetStats, inFlight int64) {
	// Markers stay attached end to end (cores read them without detaching),
	// so markers in flight = injected − delivered − dropped, and that count
	// is bounded by the packets in flight.
	mFlight := ns.InjectedMarkers - ns.DeliveredMarkers - ns.DroppedMarkers
	c.checkMin(now, RuleMarkerAccounting, "network", 0, mFlight, "marker count negative")
	c.checkMax(now, RuleMarkerAccounting, "network", inFlight, mFlight,
		"more markers than packets in flight")

	// Every marker an edge stamps is injected exactly once.
	if len(c.edges) > 0 {
		var stamped int64
		for _, e := range c.edges {
			stamped += e.MarkersInjected()
		}
		c.check(now, RuleMarkerAccounting, "edges", stamped, ns.InjectedMarkers,
			"edge-stamped markers disagree with network injected markers")
	}

	// Cache accounting: inserted == held + evicted at every instant.
	for _, r := range c.routers {
		cs, hasCache := r.CacheStats()
		if !hasCache {
			continue
		}
		c.check(now, RuleMarkerAccounting, r.Name(), cs.Inserted, cs.Held+cs.Evicted,
			fmt.Sprintf("cache inserted(%d) != held(%d)+evicted(%d)",
				cs.Inserted, cs.Held, cs.Evicted))
	}
}

// CheckFairness compares measured steady-state goodputs against the
// analytical oracle, recording a RuleFairness violation per flow whose
// relative residual exceeds the configured tolerance. Flows with a
// non-positive oracle rate are skipped.
func (c *Checker) CheckFairness(at time.Duration, rates []FlowRate) {
	if c == nil {
		return
	}
	for _, fr := range rates {
		if fr.Expected <= 0 {
			continue
		}
		c.checks++
		residual := math.Abs(fr.Measured-fr.Expected) / fr.Expected
		if residual <= c.cfg.FairnessTol {
			continue
		}
		c.record(Violation{
			At:       at,
			Rule:     RuleFairness,
			Site:     fmt.Sprintf("flow %d", fr.Index),
			Expected: fr.Expected,
			Actual:   fr.Measured,
			Detail: fmt.Sprintf("residual %.1f%% exceeds tolerance %.1f%%",
				100*residual, 100*c.cfg.FairnessTol),
		})
	}
}

// Violations returns a copy of the recorded violations.
func (c *Checker) Violations() []Violation {
	if c == nil || len(c.violations) == 0 {
		return nil
	}
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Overflow reports how many violations were dropped past MaxViolations.
func (c *Checker) Overflow() int64 {
	if c == nil {
		return 0
	}
	return c.overflow
}

// Checks reports how many individual comparisons have run.
func (c *Checker) Checks() int64 {
	if c == nil {
		return 0
	}
	return c.checks
}
