// Package maxmin computes weighted max-min fair rate allocations by
// progressive filling (water-filling), the classical algorithm of Bertsekas &
// Gallager that defines the paper's service model (§2.1): two flows sharing
// the same bottleneck link are allocated bandwidth in the ratio of their rate
// weights, and no flow's normalized rate b(i)/w(i) can be increased without
// decreasing that of a flow with an already-smaller normalized rate.
//
// This package is the reference for tests and fuzzing, not a production
// dependency: the "expected rates" the paper computes by hand for its
// topology (§4.1) come, for arbitrary topologies and flow sets, from the
// fluid allocator (flowsim.SolveMaxMin), and the differential tests and
// FuzzMaxMin hold that allocator to the plain progressive filling here.
package maxmin

import (
	"errors"
	"fmt"
	"math"
)

// Flow describes one flow's demand for the solver.
type Flow struct {
	// Weight is the flow's rate weight w(i) > 0.
	Weight float64
	// Links lists the identifiers of the links the flow traverses.
	Links []string
	// Demand optionally caps the flow's rate (<= 0 means unbounded, i.e. a
	// backlogged source as in the paper's evaluation).
	Demand float64
}

// Problem is a weighted max-min allocation instance.
type Problem struct {
	// Capacity maps link identifier to capacity (any consistent unit; the
	// experiments use packets/second).
	Capacity map[string]float64
	// Flows holds the competing flows, keyed by caller-chosen names.
	Flows map[string]Flow
}

// ErrInfeasible is returned when a flow traverses a link with no capacity
// entry.
var ErrInfeasible = errors.New("maxmin: flow references unknown link")

// Solve returns the weighted max-min fair allocation: rate per flow name.
//
// Algorithm: progressive filling on normalized rates. Repeatedly find the
// link whose remaining capacity divided by the total weight of its
// still-unfrozen flows is smallest; freeze those flows at rate
// weight·share; subtract and repeat. Demand-capped flows freeze early when
// the rising water level reaches their demand.
func Solve(p Problem) (map[string]float64, error) {
	for name, f := range p.Flows {
		if f.Weight <= 0 {
			return nil, fmt.Errorf("maxmin: flow %q has non-positive weight %v", name, f.Weight)
		}
		if len(f.Links) == 0 {
			return nil, fmt.Errorf("maxmin: flow %q traverses no links", name)
		}
		for _, l := range f.Links {
			if _, ok := p.Capacity[l]; !ok {
				return nil, fmt.Errorf("%w: flow %q uses link %q", ErrInfeasible, name, l)
			}
		}
	}

	alloc := make(map[string]float64, len(p.Flows))
	frozen := make(map[string]bool, len(p.Flows))
	residual := make(map[string]float64, len(p.Capacity))
	for l, c := range p.Capacity {
		if c < 0 {
			return nil, fmt.Errorf("maxmin: link %q has negative capacity %v", l, c)
		}
		residual[l] = c
	}

	for len(frozen) < len(p.Flows) {
		// Weight of unfrozen flows per link.
		active := make(map[string]float64, len(residual))
		for name, f := range p.Flows {
			if frozen[name] {
				continue
			}
			for _, l := range f.Links {
				active[l] += f.Weight
			}
		}

		// Water level: the smallest normalized share over loaded links,
		// and the smallest unfrozen demand level.
		level := math.Inf(1)
		for l, w := range active {
			if w <= 0 {
				continue
			}
			if s := residual[l] / w; s < level {
				level = s
			}
		}
		for name, f := range p.Flows {
			if frozen[name] || f.Demand <= 0 {
				continue
			}
			if d := f.Demand / f.Weight; d < level {
				level = d
			}
		}
		if math.IsInf(level, 1) {
			// No unfrozen flow loads any link: cannot happen since every
			// flow has links, but guard against an empty iteration.
			break
		}

		// Decide the freeze set against the residual snapshot, then apply:
		// flows on a bottleneck link (residual/weight == level) or whose
		// demand is reached at this level. Subtracting while scanning
		// would make later flows in the same round look bottlenecked on
		// links that are not.
		var toFreeze []string
		for name, f := range p.Flows {
			if frozen[name] {
				continue
			}
			capped := f.Demand > 0 && f.Demand/f.Weight <= level+1e-12
			bottlenecked := false
			for _, l := range f.Links {
				if active[l] > 0 && residual[l]/active[l] <= level+1e-12 {
					bottlenecked = true
					break
				}
			}
			if capped || bottlenecked {
				toFreeze = append(toFreeze, name)
			}
		}
		if len(toFreeze) == 0 {
			return nil, errors.New("maxmin: no progress (numerical instability)")
		}
		for _, name := range toFreeze {
			f := p.Flows[name]
			rate := level * f.Weight
			if f.Demand > 0 && f.Demand < rate {
				rate = f.Demand
			}
			alloc[name] = rate
			frozen[name] = true
			for _, l := range f.Links {
				residual[l] -= rate
				if residual[l] < 0 {
					residual[l] = 0
				}
			}
		}
	}
	return alloc, nil
}

// SolveWithMinimums computes the expected allocation when some flows hold
// minimum rate contracts: each flow first receives its contracted minimum,
// and the remaining capacity is distributed by weighted max-min fairness
// over the excess demands. It returns an error when the contracted
// minimums alone over-subscribe any link (admission control failure).
func SolveWithMinimums(p Problem, minimums map[string]float64) (map[string]float64, error) {
	residualCap := make(map[string]float64, len(p.Capacity))
	for l, c := range p.Capacity {
		residualCap[l] = c
	}
	for name, minRate := range minimums {
		if minRate < 0 {
			return nil, fmt.Errorf("maxmin: flow %q has negative minimum %v", name, minRate)
		}
		f, ok := p.Flows[name]
		if !ok {
			if minRate == 0 {
				continue
			}
			return nil, fmt.Errorf("maxmin: minimum for unknown flow %q", name)
		}
		for _, l := range f.Links {
			residualCap[l] -= minRate
			if residualCap[l] < 0 {
				return nil, fmt.Errorf("maxmin: contracted minimums over-subscribe link %q", l)
			}
		}
	}
	excess := Problem{Capacity: residualCap, Flows: make(map[string]Flow, len(p.Flows))}
	for name, f := range p.Flows {
		ef := f
		if f.Demand > 0 {
			ef.Demand = f.Demand - minimums[name]
			if ef.Demand <= 0 {
				// The contract already covers the whole demand; keep an
				// infinitesimal positive demand so Solve freezes the flow
				// at (effectively) zero excess rather than treating zero
				// as "unbounded".
				ef.Demand = 1e-12
			}
		}
		excess.Flows[name] = ef
	}
	alloc, err := Solve(excess)
	if err != nil {
		return nil, err
	}
	for name := range p.Flows {
		alloc[name] += minimums[name]
	}
	return alloc, nil
}

// NormalizedRates divides each allocation by its flow's weight, yielding the
// normalized rates whose max-min vector defines weighted rate fairness.
func NormalizedRates(p Problem, alloc map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(alloc))
	for name, rate := range alloc {
		if f, ok := p.Flows[name]; ok && f.Weight > 0 {
			out[name] = rate / f.Weight
		}
	}
	return out
}
