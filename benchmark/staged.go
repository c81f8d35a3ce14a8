package main

import (
	"fmt"
	"sort"
	"time"

	corelite "repro"
	"repro/internal/flowsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/topospec"
	"repro/internal/workload"
)

// The staged replay drives the fluid engine through its public API the way
// experiments.Run does behind the black box: build the capacity model, run
// it, assemble per-flow series. It exists so the black box's time can be
// split into model build / engine run / harness from outside; the split is
// only licensed while the staged output hashes to the black box's CSVs,
// which the traced run checks op by op.

// stagedModel builds the flowsim model of an expanded flow-backend scenario,
// choosing among the three builders exactly as the engine does.
func stagedModel(sc corelite.Scenario) (*flowsim.Model, error) {
	if len(sc.Cross) > 0 {
		return nil, fmt.Errorf("staged replay does not model cross traffic")
	}
	switch {
	case sc.Chain != nil:
		return stagedChain(sc)
	case sc.Spec != nil && len(sc.Spec.Flows) >= flowsim.IncrementalMinFlows && fullyPinned(sc.Spec):
		return stagedSpecDirect(sc)
	default:
		return stagedCloud(sc)
	}
}

func fullyPinned(s *topospec.Spec) bool {
	for _, f := range s.Flows {
		if len(f.Via) == 0 {
			return false
		}
	}
	return len(s.Flows) > 0
}

// stagedChain generates the synthetic chain: Cores−1 equal links, each flow
// crossing a seed-deterministic contiguous span.
func stagedChain(sc corelite.Scenario) (*flowsim.Model, error) {
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
	for i := 0; i < nLinks; i++ {
		if _, err := m.AddLink(fmt.Sprintf("C%d->C%d", i+1, i+2), cfg.CapacityPPS); err != nil {
			return nil, err
		}
	}
	rng := sim.NewRNG(sc.Seed).Stream("chain")
	for idx := 1; idx <= cfg.Flows; idx++ {
		span := 1 + rng.Intn(cfg.MaxSpan)
		start := rng.Intn(nLinks - span + 1)
		links := make([]int, span)
		for j := range links {
			links[j] = start + j
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

// stagedSpecDirect converts a fully pinned spec straight into the capacity
// graph: every link on a pinned path is a constraint at RateBps over 8·1000
// byte packets, flows in index order.
func stagedSpecDirect(sc corelite.Scenario) (*flowsim.Model, error) {
	s := sc.Spec
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rate := make(map[string]float64, len(s.Links))
	for _, l := range s.Links {
		rate[l.From+"->"+l.To] = l.RateBps / (8 * 1000.0)
	}
	flows := append([]topospec.FlowSpec(nil), s.Flows...)
	sort.Slice(flows, func(i, j int) bool { return flows[i].Index < flows[j].Index })
	mins := contracts(sc)
	m := flowsim.NewModel()
	for _, f := range flows {
		links := make([]int, 0, len(f.Via)-1)
		for i := 0; i+1 < len(f.Via); i++ {
			name := f.Via[i] + "->" + f.Via[i+1]
			pps, ok := rate[name]
			if !ok {
				return nil, fmt.Errorf("flow %d: pinned hop %q is not a link", f.Index, name)
			}
			li, err := m.AddLink(name, pps)
			if err != nil {
				return nil, err
			}
			links = append(links, li)
		}
		if err := m.AddFlow(flowsim.Flow{
			Index:       f.Index,
			Weight:      f.Weight,
			MinRate:     mins[f.Index],
			FixedDemand: sc.Unresponsive[f.Index],
			Links:       links,
		}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// stagedCloud is the generic path for paper-scale scenarios: build the
// packet cloud, take its oracle problem, mirror it into a fluid graph.
func stagedCloud(sc corelite.Scenario) (*flowsim.Model, error) {
	sched := sim.NewScheduler()
	var cloud *topology.Cloud
	var err error
	opts := sc.TopologyOptions
	opts.NumFlows = sc.NumFlows
	opts.Weights = sc.Weights
	opts.DefaultWeight = sc.DefaultWeight
	switch {
	case sc.Spec != nil:
		cloud, err = sc.Spec.Build(sched)
	case sc.Dumbbell:
		cloud, err = topology.Dumbbell(sched, sc.NumFlows, sc.Weights, opts)
	default:
		cloud, err = topology.Paper(sched, opts)
	}
	if err != nil {
		return nil, err
	}
	mins := contracts(sc)
	p := cloud.MaxMinProblem(nil)
	m := flowsim.NewModel()
	for _, pl := range cloud.Placements {
		links := make([]int, 0, len(pl.CoreLinks))
		for _, name := range pl.CoreLinks {
			capacity, ok := p.Capacity[name]
			if !ok {
				return nil, fmt.Errorf("flow %d: core link %q missing from oracle problem", pl.Index, name)
			}
			li, err := m.AddLink(name, capacity)
			if err != nil {
				return nil, err
			}
			links = append(links, li)
		}
		if err := m.AddFlow(flowsim.Flow{
			Index:       pl.Index,
			Weight:      pl.Weight,
			MinRate:     mins[pl.Index],
			FixedDemand: sc.Unresponsive[pl.Index],
			Links:       links,
		}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// contracts merges the spec's minimum-rate contracts with the scenario's
// explicit ones, the latter winning.
func contracts(sc corelite.Scenario) map[int]float64 {
	mins := make(map[int]float64)
	if sc.Spec != nil {
		mins = sc.Spec.MinRates()
	}
	for idx, m := range sc.MinRates {
		mins[idx] = m
	}
	return mins
}

// stagedConfig is the flowsim.Config the engine adapter derives from a
// scenario, with a caller-supplied registry.
func stagedConfig(sc corelite.Scenario, m *flowsim.Model, reg *corelite.ObsRegistry) flowsim.Config {
	cfg := flowsim.Config{
		Model:        m,
		Horizon:      sc.Duration,
		SampleWindow: sc.SampleWindow,
		Control:      flowsim.ControlMarker,
		Adapt:        sc.EdgeConfig.Adapt,
		Epoch:        sc.EdgeConfig.Epoch,
		Obs:          reg,
		ObsSample:    -1,
	}
	if cfg.SampleWindow <= 0 {
		cfg.SampleWindow = time.Second
	}
	if sc.Scheme == corelite.SchemeCSFQ {
		cfg.Control = flowsim.ControlLoss
		cfg.Adapt = sc.CSFQEdgeConfig.Adapt
		cfg.Epoch = sc.CSFQEdgeConfig.Epoch
	}
	cfg.Schedules = make([]workload.Schedule, len(m.Flows))
	for i, f := range m.Flows {
		if s, ok := sc.Schedules[f.Index]; ok {
			cfg.Schedules[i] = s
		} else {
			cfg.Schedules[i] = workload.Always()
		}
	}
	return cfg
}

// stagedResult shapes a flowsim.Output like the engine adapter does, as far
// as WriteCSV reads it.
func stagedResult(sc corelite.Scenario, m *flowsim.Model, out *flowsim.Output) *corelite.Result {
	res := &corelite.Result{Name: sc.Name, Scheme: sc.Scheme, Events: out.Events, Duration: sc.Duration}
	for i, f := range m.Flows {
		fo := &out.Flows[i]
		res.Flows = append(res.Flows, corelite.FlowResult{
			Index:       f.Index,
			Weight:      f.Weight,
			AllowedRate: fo.Allowed,
			ReceiveRate: fo.Rate,
			Cumulative:  fo.Cumulative,
		})
	}
	return res
}
