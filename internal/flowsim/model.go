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

import (
	"cmp"
	"fmt"
	"slices"
)

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
// the flows crossing them. A builder may list only the constraining links
// (an access link with the same rate as the core adds nothing to the
// allocation), but the direct spec builder lists every link on a pinned
// path, host links included. A link that exactly one flow crosses is that
// flow's private link: the allocator treats it like any other link, and
// the control epoch derives its feedback from that one flow instead of
// keeping per-link sums for it. A builder that already knows its link set
// may fill Links directly; AddLink is for builders that meet a link by
// name, possibly more than once. Validate is the model's one rule book:
// AddLink and AddFlow apply its per-link and per-flow rules as they go, and
// a user validates the whole model once before use.
type Model struct {
	Links []Link
	Flows []Flow

	// linkIndex maps a link name to its index. AddLink builds it on first
	// use, so a model whose Links were filled directly carries none.
	linkIndex map[string]int
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
	l := Link{Name: name, Capacity: capacity}
	if err := checkLink(l); err != nil {
		return 0, err
	}
	m.Links = append(m.Links, l)
	m.linkIndex[name] = len(m.Links) - 1
	return len(m.Links) - 1, nil
}

// AddFlow appends a flow after checking it against the current link set.
// A duplicate index is left to Validate.
func (m *Model) AddFlow(f Flow) error {
	if err := m.checkFlow(f); err != nil {
		return err
	}
	m.Flows = append(m.Flows, f)
	return nil
}

// Validate checks the model is runnable: every link and every flow obeys
// the rules AddLink and AddFlow apply, and flow indices are distinct.
func (m *Model) Validate() error {
	if len(m.Flows) == 0 {
		return fmt.Errorf("flowsim: model has no flows")
	}
	for _, l := range m.Links {
		if err := checkLink(l); err != nil {
			return err
		}
	}
	dup := firstDuplicate(m.Flows)
	for i, f := range m.Flows {
		if err := m.checkFlow(f); err != nil {
			return err
		}
		if i == dup {
			return fmt.Errorf("flowsim: duplicate flow index %d", f.Index)
		}
	}
	return nil
}

// firstDuplicate returns the position of the first flow whose index an
// earlier flow already has, or -1 when the indices are distinct. Flows in
// ascending index order, as the direct spec and chain builders produce
// them, are distinct without further work; otherwise a sorted slice of
// positions stands in for a set of the indices seen so far.
func firstDuplicate(flows []Flow) int {
	ascending := true
	for i := 1; i < len(flows) && ascending; i++ {
		ascending = flows[i-1].Index < flows[i].Index
	}
	if ascending {
		return -1
	}
	pos := make([]int, len(flows))
	for i := range pos {
		pos[i] = i
	}
	slices.SortFunc(pos, func(a, b int) int {
		return cmp.Or(cmp.Compare(flows[a].Index, flows[b].Index), cmp.Compare(a, b))
	})
	// In each run of equal indices the second position is where the
	// index repeats first.
	first := -1
	for k := 1; k < len(pos); k++ {
		if flows[pos[k]].Index == flows[pos[k-1]].Index && (first < 0 || pos[k] < first) {
			first = pos[k]
		}
	}
	return first
}

// checkLink applies the per-link rules.
func checkLink(l Link) error {
	if l.Name == "" {
		return fmt.Errorf("flowsim: empty link name")
	}
	if l.Capacity < 0 {
		return fmt.Errorf("flowsim: link %q has negative capacity %g", l.Name, l.Capacity)
	}
	return nil
}

// checkFlow applies the per-flow rules against the current link set.
func (m *Model) checkFlow(f Flow) error {
	switch {
	case f.Weight <= 0:
		return fmt.Errorf("flowsim: flow %d has non-positive weight %g", f.Index, f.Weight)
	case f.MinRate < 0:
		return fmt.Errorf("flowsim: flow %d has negative minimum rate %g", f.Index, f.MinRate)
	case f.FixedDemand < 0:
		return fmt.Errorf("flowsim: flow %d has negative fixed demand %g", f.Index, f.FixedDemand)
	case f.FixedDemand > 0 && f.MinRate > 0:
		return fmt.Errorf("flowsim: flow %d is unresponsive and cannot carry a rate contract", f.Index)
	case len(f.Links) == 0:
		return fmt.Errorf("flowsim: flow %d crosses no links", f.Index)
	}
	for _, l := range f.Links {
		if l < 0 || l >= len(m.Links) {
			return fmt.Errorf("flowsim: flow %d references unknown link %d", f.Index, l)
		}
	}
	return nil
}
