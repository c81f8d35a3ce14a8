package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/flowsim"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/topospec"
	"repro/internal/workload"
)

// runFlow executes sc on the fluid engine (internal/flowsim): no packets, no
// queues — per-flow rates advance between events as the demand-capped
// weighted water-filling allocation, with the schemes' LIMD loops driving
// the demands. Over steady windows its rates agree with the packet engine
// within the figure tolerances (pinned by the differential tests in
// backend_diff_test.go). sc arrives normalized and validated, with
// SampleWindow defaulted.
func runFlow(sc Scenario) (*Result, error) {
	start := time.Now()
	m, err := buildFlowModel(sc)
	if err != nil {
		return nil, fmt.Errorf("build flow model: %w", err)
	}
	build := time.Since(start)
	// The contracts are admitted before the run; the oracle solves on the
	// engine's water-filler once the run is done with it.
	oracle, err := askOracle(sc, m, nil)
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

	schedules := make([]workload.Schedule, len(m.Flows))
	for i, f := range m.Flows {
		schedules[i] = scheduleOf(sc, f.Index)
	}

	var onViolation func(flowsim.Violation)
	var onChecks func(int64)
	if sc.Check.Enabled() {
		onViolation = func(v flowsim.Violation) {
			rule := invariant.RuleFluidConservation
			switch v.Kind {
			case flowsim.KindBounds:
				rule = invariant.RuleFluidBounds
			case flowsim.KindWaste:
				rule = invariant.RuleFluidWaste
			}
			sc.Check.Report(invariant.Violation{
				At: v.At, Rule: rule, Site: v.Site,
				Expected: v.Expected, Actual: v.Actual, Detail: v.Detail,
			})
		}
		onChecks = sc.Check.AddChecks
	}

	out, err := flowsim.Run(flowsim.Config{
		Model:        m,
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
	if sc.Obs != nil {
		// The model build is the self-profile's first layer, one event.
		perf := append([]obs.PerfStat{{Kind: "build", Events: 1, WallSeconds: build.Seconds(), Sampled: 1}}, sc.Obs.Perf()...)
		sc.Obs.RecordPerf(perf)
	}

	solver := out.Solver()
	res := &Result{
		Name:            sc.Name,
		Scheme:          sc.Scheme,
		ExpectedFullSet: oracle.answer(solver),
		Events:          out.Events,
		SampleWindow:    sc.SampleWindow,
		Duration:        sc.Duration,
		Flows:           make([]FlowResult, 0, len(m.Flows)),
	}
	for i, f := range m.Flows {
		fo := &out.Flows[i]
		fr := FlowResult{
			Index:       f.Index,
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
		checkFairness(sc, m, solver, res)
		res.Violations = sc.Check.Violations()
		res.TotalViolations = int64(len(res.Violations)) + sc.Check.Overflow()
		res.InvariantChecks = sc.Check.Checks()
	}
	return res, nil
}

// buildFlowModel converts the scenario's topology into its capacity graph,
// the one description of "who shares which link at what capacity" behind the
// engine seam: the fluid engine simulates it, and both engines' oracle
// (expectedRates) and fairness check read it. It chooses the builder from
// the shape of the input: generated chains and fully pinned specs are
// constructed directly — no packet network, which is what lets the flow
// backend scale past what netem can build and route — and everything else
// (the built-in topologies, specs with routed flows) goes through the packet
// cloud. The spec builders are interchangeable
// wherever both apply (TestDirectSpecBuildMatchesGeneric).
func buildFlowModel(sc Scenario) (*flowsim.Model, error) {
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
func cloudModel(sc Scenario, cloud *topology.Cloud) (*flowsim.Model, error) {
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
	return m, nil
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
// packet network's PacketsPerSecond(1000)) and the same flows — as
// cloudModel over Spec.Build.
//
// It works on the spec's dense form, each flow's via path as link indices,
// so it keeps no name-keyed map unless cross traffic needs links by name.
// A spec normalize generated in the same call comes with that form from
// its generator, which is exactly what Resolve would return
// (TestGeneratedSpecsValidate), so it is not resolved again. Any other
// spec, the caller's own or one replaced after normalizing, is resolved
// here, which is its one validation on the fluid path.
func buildSpecModelDirect(sc Scenario) (*flowsim.Model, error) {
	s := sc.Spec
	r := sc.generated.resolved
	if sc.generated.spec != s || r == nil {
		var err error
		if r, err = s.Resolve(); err != nil {
			return nil, err
		}
	}
	order := make([]int32, len(s.Flows))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(s.Flows[a].Index, s.Flows[b].Index) })
	// Every link on a pinned path is promoted into the constraint set, the
	// same rule Build applies to via-pinned flows. toModel maps a spec link
	// to its model link (-1: not promoted), numbered in first-crossed order
	// over the flows in index order, which is cloudModel's AddLink order.
	toModel := make([]int32, len(s.Links))
	for i := range toModel {
		toModel[i] = -1
	}
	n := int32(0)
	for _, fi := range order {
		for _, li := range r.Path(int(fi)) {
			if toModel[li] < 0 {
				toModel[li] = n
				n++
			}
		}
	}
	// The model links' "from->to" names are substrings of one string grown
	// to its exact length.
	size := 0
	for li, mi := range toModel {
		if mi >= 0 {
			size += len(s.Links[li].From) + len("->") + len(s.Links[li].To)
		}
	}
	var names strings.Builder
	names.Grow(size)
	for li, mi := range toModel {
		if mi >= 0 {
			names.WriteString(s.Links[li].From)
			names.WriteString("->")
			names.WriteString(s.Links[li].To)
		}
	}
	all, off := names.String(), 0
	links := make([]flowsim.Link, n)
	for li, mi := range toModel {
		if mi >= 0 {
			l := &s.Links[li]
			end := off + len(l.From) + len("->") + len(l.To)
			links[mi] = flowsim.Link{Name: all[off:end], Capacity: l.RateBps / (8 * 1000.0)}
			off = end
		}
	}
	if len(sc.Cross) > 0 {
		// Core-core links are capacity constraints even when no flow
		// crosses them (cross traffic may target them), mirroring
		// Cloud.CoreLinks before per-flow promotion.
		caps := make(map[string]float64, len(links))
		for _, l := range links {
			caps[l.Name] = l.Capacity
		}
		for li, l := range s.Links {
			if toModel[li] < 0 && r.Roles[li] == [2]topospec.NodeRole{topospec.RoleCore, topospec.RoleCore} {
				caps[l.From+"->"+l.To] = l.RateBps / (8 * 1000.0)
			}
		}
		if err := applyCross(sc, caps); err != nil {
			return nil, err
		}
		for i := range links {
			links[i].Capacity = caps[links[i].Name]
		}
	}
	// Each flow's model links are carved, in index order, from one backing
	// array.
	flowLinks := make([]int, len(r.Hops))
	m := &flowsim.Model{Links: links, Flows: make([]flowsim.Flow, 0, len(order))}
	off = 0
	for _, fi := range order {
		f := &s.Flows[fi]
		path := r.Path(int(fi))
		end := off + len(path)
		fl := flowLinks[off:end:end]
		for i, li := range path {
			fl[i] = int(toModel[li])
		}
		off = end
		if err := m.AddFlow(flowsim.Flow{
			Index:       f.Index,
			Weight:      f.Weight,
			MinRate:     sc.MinRates[f.Index],
			FixedDemand: sc.Unresponsive[f.Index],
			Links:       fl,
		}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// buildChainModel generates the synthetic chain: Cores−1 equal links, each
// flow crossing a seed-deterministic contiguous span.
func buildChainModel(sc Scenario) (*flowsim.Model, error) {
	cfg := *sc.Chain
	if cfg.CapacityPPS <= 0 {
		cfg.CapacityPPS = topology.PacketsPerSecond
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
	// Every flow's span and start are drawn first, in flow order, so that
	// the paths can be carved from one backing array.
	rng := sim.NewRNG(sc.Seed).Stream("chain")
	type draw struct{ span, start int }
	draws := make([]draw, cfg.Flows)
	total := 0
	for i := range draws {
		span := 1 + rng.Intn(cfg.MaxSpan)
		draws[i] = draw{span, rng.Intn(nLinks - span + 1)}
		total += span
	}
	paths := make([]int, total)
	m.Flows = make([]flowsim.Flow, 0, cfg.Flows)
	for i, d := range draws {
		idx := i + 1
		links := paths[:d.span:d.span]
		paths = paths[d.span:]
		for j := range links {
			links[j] = d.start + j
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
	}
	return m, nil
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
