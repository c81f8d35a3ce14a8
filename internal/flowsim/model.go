// Package flowsim is the flow-level (fluid) simulation engine: instead of
// moving packets it advances per-flow rates between rate-change events, in
// the spirit of Narses-style flow simulators. Between events every flow's
// achieved rate is the demand-capped weighted water-filling allocation over
// the link graph — the same allocation internal/maxmin solves analytically —
// and the demands evolve under the schemes' LIMD control loop
// (internal/adapt): Corelite decreases proportionally to the normalized
// rate when a path link is congested, CSFQ decreases proportionally to the
// fluid loss rate. The engine trades packet-level effects (queueing delay,
// burst interleaving, marker sampling noise) for three to four orders of
// magnitude in throughput, which is what makes 10k-flow/1000-node scenarios
// tractable.
package flowsim

import "fmt"

// Link is one directed capacity constraint in pkt/s.
type Link struct {
	// Name identifies the link ("C1->C2").
	Name string
	// Capacity is the link rate in packets/second.
	Capacity float64
}

// Flow is one fluid flow: a weight and the set of links it crosses.
type Flow struct {
	// Index is the caller's flow identifier (1-based scenario index).
	Index int
	// Weight is the rate weight (> 0).
	Weight float64
	// MinRate is the minimum rate contract floor in pkt/s (0 = best
	// effort).
	MinRate float64
	// FixedDemand, when > 0, marks the flow unresponsive: its demand is
	// pinned at this rate in pkt/s and the control loop never steps it.
	// Under ControlMarker (Corelite, whose core is FIFO and cannot police
	// traffic that bypasses edge shaping) the flow takes its full offered
	// rate off the top and responsive flows water-fill the remainder;
	// under ControlLoss (CSFQ, which polices by label) it joins the
	// weighted water-fill and its excess is dropped. Either way the
	// undelivered excess accrues as Lost.
	FixedDemand float64
	// Links holds indices into Model.Links, in path order.
	Links []int
}

// Model is the capacity graph the engine allocates over: a set of links and
// the flows crossing them. Only constraining links need to be listed (access
// links with the same rate as the core add nothing to the allocation). A
// builder that already knows its link set may fill Links directly; AddLink
// is for builders that meet a link by name, possibly more than once.
type Model struct {
	Links []Link
	Flows []Flow

	// linkIndex maps a link name to its index. AddLink builds it on first
	// use, so a model whose Links were filled directly carries none.
	linkIndex map[string]int
	flowIndex map[int]bool
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddLink appends a link and returns its index. Adding a name twice returns
// the existing index (capacity must then match).
func (m *Model) AddLink(name string, capacity float64) (int, error) {
	if m.linkIndex == nil {
		m.linkIndex = make(map[string]int, len(m.Links))
		for i, l := range m.Links {
			if _, dup := m.linkIndex[l.Name]; !dup {
				m.linkIndex[l.Name] = i
			}
		}
	}
	if i, ok := m.linkIndex[name]; ok {
		if m.Links[i].Capacity != capacity {
			return 0, fmt.Errorf("flowsim: link %q added twice with capacities %g and %g",
				name, m.Links[i].Capacity, capacity)
		}
		return i, nil
	}
	if name == "" {
		return 0, fmt.Errorf("flowsim: empty link name")
	}
	if capacity < 0 {
		return 0, fmt.Errorf("flowsim: link %q has negative capacity %g", name, capacity)
	}
	m.Links = append(m.Links, Link{Name: name, Capacity: capacity})
	m.linkIndex[name] = len(m.Links) - 1
	return len(m.Links) - 1, nil
}

// AddFlow appends a flow after validating it against the current link set.
func (m *Model) AddFlow(f Flow) error {
	if f.Weight <= 0 {
		return fmt.Errorf("flowsim: flow %d has non-positive weight %g", f.Index, f.Weight)
	}
	if f.MinRate < 0 {
		return fmt.Errorf("flowsim: flow %d has negative minimum rate %g", f.Index, f.MinRate)
	}
	if f.FixedDemand < 0 {
		return fmt.Errorf("flowsim: flow %d has negative fixed demand %g", f.Index, f.FixedDemand)
	}
	if f.FixedDemand > 0 && f.MinRate > 0 {
		return fmt.Errorf("flowsim: flow %d is unresponsive and cannot carry a rate contract", f.Index)
	}
	if len(f.Links) == 0 {
		return fmt.Errorf("flowsim: flow %d crosses no links", f.Index)
	}
	for _, l := range f.Links {
		if l < 0 || l >= len(m.Links) {
			return fmt.Errorf("flowsim: flow %d references unknown link %d", f.Index, l)
		}
	}
	if m.flowIndex == nil {
		// A builder that presized Flows has said how many flows to expect.
		m.flowIndex = make(map[int]bool, cap(m.Flows))
	}
	if m.flowIndex[f.Index] {
		return fmt.Errorf("flowsim: duplicate flow index %d", f.Index)
	}
	m.flowIndex[f.Index] = true
	m.Flows = append(m.Flows, f)
	return nil
}

// Validate checks the model is runnable.
func (m *Model) Validate() error {
	if len(m.Flows) == 0 {
		return fmt.Errorf("flowsim: model has no flows")
	}
	seen := make(map[int]bool, len(m.Flows))
	for _, f := range m.Flows {
		if f.Weight <= 0 {
			return fmt.Errorf("flowsim: flow %d has non-positive weight %g", f.Index, f.Weight)
		}
		for _, l := range f.Links {
			if l < 0 || l >= len(m.Links) {
				return fmt.Errorf("flowsim: flow %d references unknown link %d", f.Index, l)
			}
		}
		if seen[f.Index] {
			return fmt.Errorf("flowsim: duplicate flow index %d", f.Index)
		}
		seen[f.Index] = true
	}
	return nil
}
