package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/adapt"
	"repro/internal/flowsim"
	"repro/internal/invariant"
	"repro/internal/maxmin"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/topospec"
	"repro/internal/workload"
)

// flowEngine executes scenarios on the fluid engine (internal/flowsim): no
// packets, no queues — per-flow rates advance between events as the
// demand-capped weighted water-filling allocation, with the schemes' LIMD
// loops driving the demands. It reuses the scenario layer's topology
// builders and oracle so that, over steady windows, its rates agree with
// the packet engine within the figure tolerances (pinned by the
// differential tests in backend_diff_test.go).
type flowEngine struct{}

// flowModel is the fluid engine's view of one scenario: the capacity graph
// plus the placement metadata the measurement layer needs.
type flowModel struct {
	model *flowsim.Model
	// placements mirror Model.Flows order; for generated chains they are
	// synthetic (Index/Weight/CoreLinks filled, nodes named "chain").
	placements []topology.Placement
}

// Run implements Engine. sc arrives normalized and validated, with
// SampleWindow defaulted.
func (flowEngine) Run(sc Scenario) (*Result, error) {
	fm, err := buildFlowModel(sc)
	if err != nil {
		return nil, fmt.Errorf("build flow model: %w", err)
	}

	control := flowsim.ControlMarker
	var adaptCfg adapt.Config
	epoch := time.Duration(0)
	switch sc.Scheme {
	case SchemeCorelite:
		adaptCfg = sc.EdgeConfig.Adapt
		epoch = sc.EdgeConfig.Epoch
	case SchemeCSFQ:
		control = flowsim.ControlLoss
		adaptCfg = sc.CSFQEdgeConfig.Adapt
		epoch = sc.CSFQEdgeConfig.Epoch
	}

	schedules := make([]workload.Schedule, len(fm.model.Flows))
	for i, f := range fm.model.Flows {
		schedules[i] = scheduleOf(sc, f.Index)
	}

	var onViolation func(flowsim.Violation)
	var onChecks func(int64)
	if sc.Check.Enabled() {
		onViolation = func(v flowsim.Violation) {
			rule := invariant.RuleFluidConservation
			if v.Kind == flowsim.KindBounds {
				rule = invariant.RuleFluidBounds
			}
			sc.Check.Report(invariant.Violation{
				At: v.At, Rule: rule, Site: v.Site,
				Expected: v.Expected, Actual: v.Actual, Detail: v.Detail,
			})
		}
		onChecks = sc.Check.AddChecks
	}

	solver := flowsim.SolverAuto
	if sc.FullSolve {
		solver = flowsim.SolverFull
	}

	out, err := flowsim.Run(flowsim.Config{
		Model:        fm.model,
		Horizon:      sc.Duration,
		Epoch:        epoch,
		SampleWindow: sc.SampleWindow,
		Control:      control,
		Adapt:        adaptCfg,
		Solver:       solver,
		Schedules:    schedules,
		OnViolation:  onViolation,
		OnChecks:     onChecks,
		Obs:          sc.Obs,
		ObsSample:    sc.ObsSample,
		Progress:     sc.Progress,
	})
	if err != nil {
		return nil, fmt.Errorf("run scenario %q: %w", sc.Name, err)
	}

	expected, err := flowExpectedRates(sc, fm, nil)
	if err != nil {
		return nil, fmt.Errorf("expected rates: %w", err)
	}
	res := &Result{
		Name:            sc.Name,
		Scheme:          sc.Scheme,
		ExpectedFullSet: expected,
		Events:          out.Events,
		SampleWindow:    sc.SampleWindow,
		Duration:        sc.Duration,
		Flows:           make([]FlowResult, 0, len(fm.model.Flows)),
	}
	perEdge := make(map[string]int)
	for i, f := range fm.model.Flows {
		pl := fm.placements[i]
		local := perEdge[pl.Ingress]
		perEdge[pl.Ingress] = local + 1
		fo := &out.Flows[i]
		fr := FlowResult{
			Index:       f.Index,
			ID:          packet.FlowID{Edge: pl.Ingress, Local: local},
			Weight:      f.Weight,
			AllowedRate: fo.Allowed,
			ReceiveRate: fo.Rate,
			Cumulative:  fo.Cumulative,
			Delivered:   int64(fo.Delivered + 0.5),
			Losses:      int64(fo.Lost + 0.5),
		}
		res.TotalLosses += fr.Losses
		res.Flows = append(res.Flows, fr)
	}
	if sc.Check.Enabled() {
		checkFairnessFlows(sc, fm, res)
		res.Violations = sc.Check.Violations()
		res.InvariantChecks = sc.Check.Checks()
	}
	return res, nil
}

// buildFlowModel converts the scenario's topology into a fluid capacity
// graph. Built-in and spec topologies go through the same builders as the
// packet engine (so placements, weights and link capacities are identical);
// generated chains are constructed directly, which is what lets the flow
// backend scale to thousands of nodes without the all-pairs route
// computation a packet network needs.
func buildFlowModel(sc Scenario) (*flowModel, error) {
	if sc.Chain != nil {
		return buildChainModel(sc)
	}
	if sc.Spec != nil && len(sc.Spec.Flows) >= flowsim.IncrementalMinFlows && specFullyPinned(sc.Spec) {
		return buildSpecModelDirect(sc)
	}
	return buildCloudModel(sc)
}

// buildCloudModel is the generic fluid-model builder: construct the packet
// network, take its oracle problem, and mirror it into a fluid graph.
func buildCloudModel(sc Scenario) (*flowModel, error) {
	cloud, err := buildCloud(sc, sim.NewScheduler())
	if err != nil {
		return nil, err
	}
	p := cloud.MaxMinProblem(nil)
	if err := applyCross(sc, p.Capacity); err != nil {
		return nil, err
	}
	m := flowsim.NewModel()
	for _, pl := range cloud.Placements {
		links := make([]int, 0, len(pl.CoreLinks))
		for _, name := range pl.CoreLinks {
			cap, ok := p.Capacity[name]
			if !ok {
				return nil, fmt.Errorf("flow %d: core link %q missing from oracle problem", pl.Index, name)
			}
			li, err := m.AddLink(name, cap)
			if err != nil {
				return nil, err
			}
			links = append(links, li)
		}
		if err := m.AddFlow(flowsim.Flow{
			Index:       pl.Index,
			Weight:      pl.Weight,
			MinRate:     sc.MinRates[pl.Index],
			FixedDemand: sc.Unresponsive[pl.Index],
			Links:       links,
		}); err != nil {
			return nil, err
		}
	}
	return &flowModel{model: m, placements: cloud.Placements}, nil
}

// specFullyPinned reports whether every flow in the spec pins its complete
// path, which is what makes the fluid model derivable without building the
// packet network at all.
func specFullyPinned(s *topospec.Spec) bool {
	if len(s.Flows) == 0 {
		return false
	}
	for _, f := range s.Flows {
		if len(f.Via) == 0 {
			return false
		}
	}
	return true
}

// buildSpecModelDirect converts a fully-pinned spec straight into the fluid
// capacity graph, skipping netem entirely. Building the packet network for
// a 100k-flow fat-tree means 200k+ nodes, links and route installs that the
// fluid engine then never touches; this path produces the identical model —
// the same link set (each pinned path's links, promoted like Build does),
// the same capacities (RateBps over 8·1000-byte packets, exactly the
// packet network's PacketsPerSecond(1000)) and the same placements — so
// the generic and direct builders are interchangeable (pinned by the
// differential test in engine_flow_test.go).
//
// Validate-once rule: a spec that normalize expanded from sc.Generate left
// topogen validated and has only had its weights rewritten since (AddFlow
// checks those), so it is not validated again; a caller-supplied Scenario.Spec
// gets its one full validation here.
func buildSpecModelDirect(sc Scenario) (*flowModel, error) {
	s := sc.Spec
	if sc.Generate == nil {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	roles := make(map[string]topospec.NodeRole, len(s.Nodes))
	for _, n := range s.Nodes {
		roles[n.Name] = n.Role
	}
	// byName holds each link's "from->to" name next to its rate, so a hop
	// resolves to the one name string built here: the lookup key below is a
	// temporary that never reaches the heap, and the rate lookup, promotion,
	// AddLink and Placement.CoreLinks all share the link's own string.
	type specLink struct {
		name string
		pps  float64
	}
	byName := make(map[string]specLink, len(s.Links))
	caps := make(map[string]float64, len(s.Links))
	for _, l := range s.Links {
		name := l.From + "->" + l.To
		pps := l.RateBps / (8 * 1000.0)
		byName[name] = specLink{name, pps}
		// Core-core links are capacity constraints even when no flow
		// crosses them (cross traffic may target them), mirroring
		// Cloud.CoreLinks before per-flow promotion.
		if roles[l.From] == topospec.RoleCore && roles[l.To] == topospec.RoleCore {
			caps[name] = pps
		}
	}
	flows := make([]topospec.FlowSpec, len(s.Flows))
	copy(flows, s.Flows)
	sort.Slice(flows, func(i, j int) bool { return flows[i].Index < flows[j].Index })
	// Every link on a pinned path is promoted into the constraint set, the
	// same rule Build applies to via-pinned flows.
	crossed := make([][]string, len(flows))
	for fi, f := range flows {
		names := make([]string, len(f.Via)-1)
		for i := range names {
			l, ok := byName[f.Via[i]+"->"+f.Via[i+1]]
			if !ok {
				return nil, fmt.Errorf("flow %d: pinned hop %q is not a link", f.Index, f.Via[i]+"->"+f.Via[i+1])
			}
			caps[l.name] = l.pps
			names[i] = l.name
		}
		crossed[fi] = names
	}
	if err := applyCross(sc, caps); err != nil {
		return nil, err
	}
	m := flowsim.NewModel()
	placements := make([]topology.Placement, 0, len(flows))
	for fi, f := range flows {
		links := make([]int, 0, len(crossed[fi]))
		for _, name := range crossed[fi] {
			li, err := m.AddLink(name, caps[name])
			if err != nil {
				return nil, err
			}
			links = append(links, li)
		}
		if err := m.AddFlow(flowsim.Flow{
			Index:       f.Index,
			Weight:      f.Weight,
			MinRate:     sc.MinRates[f.Index],
			FixedDemand: sc.Unresponsive[f.Index],
			Links:       links,
		}); err != nil {
			return nil, err
		}
		placements = append(placements, topology.Placement{
			Index:     f.Index,
			Weight:    f.Weight,
			Ingress:   f.Ingress,
			Egress:    f.Egress,
			CoreLinks: crossed[fi],
			Hops:      len(crossed[fi]),
			Relays:    f.Relays,
		})
	}
	return &flowModel{model: m, placements: placements}, nil
}

// buildChainModel generates the synthetic chain: Cores−1 equal links, each
// flow crossing a seed-deterministic contiguous span.
func buildChainModel(sc Scenario) (*flowModel, error) {
	cfg := *sc.Chain
	if cfg.CapacityPPS <= 0 {
		cfg.CapacityPPS = topology.LinkRateBps / 8 / float64(packet.DefaultSizeBytes)
	}
	if cfg.MaxSpan <= 0 {
		cfg.MaxSpan = 4
	}
	nLinks := cfg.Cores - 1
	if cfg.MaxSpan > nLinks {
		cfg.MaxSpan = nLinks
	}
	m := flowsim.NewModel()
	names := make([]string, nLinks)
	for i := 0; i < nLinks; i++ {
		names[i] = fmt.Sprintf("C%d->C%d", i+1, i+2)
	}
	caps := make(map[string]float64, nLinks)
	for _, name := range names {
		caps[name] = cfg.CapacityPPS
	}
	if err := applyCross(sc, caps); err != nil {
		return nil, err
	}
	for _, name := range names {
		if _, err := m.AddLink(name, caps[name]); err != nil {
			return nil, err
		}
	}
	rng := sim.NewRNG(sc.Seed).Stream("chain")
	placements := make([]topology.Placement, 0, cfg.Flows)
	for idx := 1; idx <= cfg.Flows; idx++ {
		span := 1 + rng.Intn(cfg.MaxSpan)
		start := rng.Intn(nLinks - span + 1)
		links := make([]int, span)
		coreLinks := make([]string, span)
		for j := 0; j < span; j++ {
			links[j] = start + j
			coreLinks[j] = names[start+j]
		}
		weight, ok := sc.Weights[idx]
		if !ok {
			weight = sc.DefaultWeight
		}
		if weight <= 0 {
			weight = float64(1 + (idx-1)%5)
		}
		if err := m.AddFlow(flowsim.Flow{
			Index:       idx,
			Weight:      weight,
			MinRate:     sc.MinRates[idx],
			FixedDemand: sc.Unresponsive[idx],
			Links:       links,
		}); err != nil {
			return nil, err
		}
		placements = append(placements, topology.Placement{
			Index: idx, Weight: weight,
			Ingress: "chain", Egress: "chain",
			CoreLinks: coreLinks, Hops: span,
		})
	}
	return &flowModel{model: m, placements: placements}, nil
}

// applyCross subtracts each cross stream's mean rate from its link's
// capacity — the same adjustment the packet oracle makes — so the fluid
// allocation sees the residual capacity the adaptive flows compete for.
func applyCross(sc Scenario, capacity map[string]float64) error {
	for i, ct := range sc.Cross {
		c, ok := capacity[ct.Link]
		if !ok {
			return fmt.Errorf("cross stream %d: unknown link %q", i, ct.Link)
		}
		c -= ct.MeanRate()
		if c < 0 {
			c = 0
		}
		capacity[ct.Link] = c
	}
	return nil
}

// flowExpectedRates solves the weighted max-min oracle directly on the
// fluid model (whose capacities already account for cross traffic), for
// the given active set (nil = all flows). Large models use the fluid
// engine's slice-based allocator — same algorithm, no string-keyed maps —
// because at 10k+ flows the map-based reference solver dominates the whole
// run; small models keep the maxmin package so the figure-scale expected
// sets stay bit-for-bit what they always were.
func flowExpectedRates(sc Scenario, fm *flowModel, active map[int]bool) (map[int]float64, error) {
	if len(fm.model.Flows) >= flowsim.IncrementalMinFlows {
		return flowExpectedRatesLarge(sc, fm, active), nil
	}
	return flowExpectedRatesMaxmin(sc, fm, active)
}

// flowExpectedRatesMaxmin is the map-based reference oracle (the maxmin
// package), kept verbatim for small models and as the differential
// reference for flowExpectedRatesLarge.
func flowExpectedRatesMaxmin(sc Scenario, fm *flowModel, active map[int]bool) (map[int]float64, error) {
	p := maxmin.Problem{
		Capacity: make(map[string]float64, len(fm.model.Links)),
		Flows:    make(map[string]maxmin.Flow, len(fm.model.Flows)),
	}
	for _, l := range fm.model.Links {
		p.Capacity[l.Name] = l.Capacity
	}
	mins := make(map[string]float64)
	out := make(map[int]float64, len(fm.model.Flows))
	for _, f := range fm.model.Flows {
		if active != nil && !active[f.Index] {
			continue
		}
		if f.FixedDemand > 0 && sc.Scheme == SchemeCorelite {
			// Unresponsive under Corelite: the FIFO core cannot police the
			// blast, so it takes its offered rate off the top of every
			// link it crosses. (Under CSFQ it is policed to its weighted
			// share and stays an ordinary member of the problem.)
			for _, li := range f.Links {
				name := fm.model.Links[li].Name
				c := p.Capacity[name] - f.FixedDemand
				if c < 0 {
					c = 0
				}
				p.Capacity[name] = c
			}
			out[f.Index] = f.FixedDemand
			continue
		}
		links := make([]string, len(f.Links))
		for j, li := range f.Links {
			links[j] = fm.model.Links[li].Name
		}
		key := strconv.Itoa(f.Index)
		p.Flows[key] = maxmin.Flow{Weight: f.Weight, Links: links}
		if f.MinRate > 0 {
			mins[key] = f.MinRate
		}
	}
	alloc, err := maxmin.SolveWithMinimums(p, mins)
	if err != nil {
		return nil, err
	}
	for _, f := range fm.model.Flows {
		if active != nil && !active[f.Index] {
			continue
		}
		if _, done := out[f.Index]; done {
			continue
		}
		out[f.Index] = alloc[strconv.Itoa(f.Index)]
	}
	return out, nil
}

// flowExpectedRatesLarge is flowExpectedRates on the allocator: Corelite
// unresponsive blasts come off the top of their links' capacities (on a
// copy of the link table) and everyone else enters the water-filling with
// unbounded demand. Agreement with the maxmin reference is pinned at 1e-6
// by TestFlowExpectedRatesLargeMatchesMaxmin.
func flowExpectedRatesLarge(sc Scenario, fm *flowModel, active map[int]bool) map[int]float64 {
	m := fm.model
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
				c := links[li].Capacity - f.FixedDemand
				if c < 0 {
					c = 0
				}
				links[li].Capacity = c
			}
			out[f.Index] = f.FixedDemand
			continue
		}
		act[i] = true
		dem[i] = -1
	}
	rates := flowsim.SolveMaxMin(&flowsim.Model{Links: links, Flows: m.Flows}, act, dem)
	for i, f := range m.Flows {
		if act[i] {
			out[f.Index] = rates[i]
		}
	}
	return out
}

// checkFairnessFlows is the flow backend's differential oracle feed,
// mirroring checkFairness: measured steady-window rates versus the
// weighted max-min allocation on the fluid model.
func checkFairnessFlows(sc Scenario, fm *flowModel, res *Result) {
	cfg := sc.Check.Config()
	from, to, active, ok := steadyWindow(sc, fm.placements)
	if !ok || to-from < cfg.MinSteady {
		return
	}
	expected, err := flowExpectedRates(sc, fm, active)
	if err != nil {
		return
	}
	mid := from + (to-from)/2
	rates := make([]invariant.FlowRate, 0, len(res.Flows))
	for i := range res.Flows {
		f := &res.Flows[i]
		if !active[f.Index] {
			continue
		}
		if _, unresp := sc.Unresponsive[f.Index]; unresp {
			continue
		}
		exp, found := expected[f.Index]
		if !found {
			continue
		}
		rates = append(rates, invariant.FlowRate{
			Index:    f.Index,
			Expected: exp,
			Measured: f.ReceiveRate.MeanOver(mid, to),
		})
	}
	sc.Check.CheckFairness(to, rates)
}
