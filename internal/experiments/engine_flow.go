package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/adapt"
	"repro/internal/flowsim"
	"repro/internal/invariant"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/topospec"
	"repro/internal/workload"
)

// flowModel is the one description of "who shares which link at what
// capacity" behind the engine seam: the fluid engine simulates it, and both
// engines' oracle (expectedRates) and fairness check read it. It carries the
// capacity graph plus the placement metadata the measurement layer needs.
type flowModel struct {
	model *flowsim.Model
	// placements mirror Model.Flows order; for generated chains they are
	// synthetic (Index/Weight/CoreLinks filled, nodes named "chain").
	placements []topology.Placement
}

// runFlow executes sc on the fluid engine (internal/flowsim): no packets, no
// queues — per-flow rates advance between events as the demand-capped
// weighted water-filling allocation, with the schemes' LIMD loops driving
// the demands. Over steady windows its rates agree with the packet engine
// within the figure tolerances (pinned by the differential tests in
// backend_diff_test.go). sc arrives normalized and validated, with
// SampleWindow defaulted.
func runFlow(sc Scenario) (*Result, error) {
	fm, err := buildFlowModel(sc)
	if err != nil {
		return nil, fmt.Errorf("build flow model: %w", err)
	}
	expected, err := expectedRates(sc, fm, nil)
	if err != nil {
		return nil, fmt.Errorf("expected rates: %w", err)
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

	out, err := flowsim.Run(flowsim.Config{
		Model:        fm.model,
		Horizon:      sc.Duration,
		Epoch:        epoch,
		SampleWindow: sc.SampleWindow,
		Control:      control,
		Adapt:        adaptCfg,
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
		checkFairness(sc, fm, res)
		res.Violations = sc.Check.Violations()
		res.TotalViolations = int64(len(res.Violations)) + sc.Check.Overflow()
		res.InvariantChecks = sc.Check.Checks()
	}
	return res, nil
}

// buildFlowModel converts the scenario's topology into its capacity graph,
// choosing the builder from the shape of the input: generated chains and
// fully pinned specs are constructed directly — no packet network, which is
// what lets the flow backend scale past what netem can build and route —
// and everything else (the built-in topologies, specs with routed flows)
// goes through the packet cloud. The spec builders are interchangeable
// wherever both apply (TestDirectSpecBuildMatchesGeneric).
func buildFlowModel(sc Scenario) (*flowModel, error) {
	if sc.Chain != nil {
		return buildChainModel(sc)
	}
	if sc.Spec != nil && specFullyPinned(sc.Spec) {
		return buildSpecModelDirect(sc)
	}
	cloud, err := buildCloud(sc, sim.NewScheduler())
	if err != nil {
		return nil, err
	}
	return cloudModel(sc, cloud)
}

// cloudModel mirrors a built packet cloud into the capacity graph: its core
// links at their packet service rates (less cross traffic), its placements
// as flows. The packet engine calls it on the cloud it simulates.
func cloudModel(sc Scenario, cloud *topology.Cloud) (*flowModel, error) {
	caps := make(map[string]float64, len(cloud.CoreLinks))
	for name, l := range cloud.CoreLinks {
		caps[name] = l.PacketsPerSecond(1000)
	}
	if err := applyCross(sc, caps); err != nil {
		return nil, err
	}
	m := flowsim.NewModel()
	for _, pl := range cloud.Placements {
		links := make([]int, 0, len(pl.CoreLinks))
		for _, name := range pl.CoreLinks {
			c, ok := caps[name]
			if !ok {
				return nil, fmt.Errorf("flow %d: core link %q missing from the cloud", pl.Index, name)
			}
			li, err := m.AddLink(name, c)
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
// packet network's PacketsPerSecond(1000)) and the same placements — as
// cloudModel over Spec.Build.
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
// capacity, so the allocation — the fluid engine's and the oracle's — sees
// the residual capacity the adaptive flows compete for.
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
