package maxmin

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzMaxMin drives the progressive-filling solver with randomly generated
// well-formed problems and asserts the defining properties of a weighted
// max-min allocation: the solver never errors on valid input, rates are
// non-negative, no link is over-subscribed, and every flow is either
// demand-capped or crosses a saturated (bottleneck) link.
func FuzzMaxMin(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2))
	f.Add(int64(42), uint8(8), uint8(4))
	f.Add(int64(7), uint8(1), uint8(1))
	f.Add(int64(-12345), uint8(20), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nf, nl uint8) {
		rng := rand.New(rand.NewSource(seed))
		nLinks := int(nl%6) + 1
		nFlows := int(nf%12) + 1

		p := Problem{
			Capacity: make(map[string]float64, nLinks),
			Flows:    make(map[string]Flow, nFlows),
		}
		links := make([]string, nLinks)
		for i := range links {
			links[i] = fmt.Sprintf("L%d", i)
			p.Capacity[links[i]] = 10 + float64(rng.Float64()*990)
		}
		for i := 0; i < nFlows; i++ {
			first := rng.Intn(nLinks)
			last := first + rng.Intn(nLinks-first)
			fl := Flow{Weight: 0.1 + float64(rng.Float64()*8)}
			for l := first; l <= last; l++ {
				fl.Links = append(fl.Links, links[l])
			}
			if rng.Intn(2) == 0 {
				fl.Demand = rng.Float64() * 400
			}
			p.Flows[fmt.Sprintf("f%d", i)] = fl
		}

		alloc, err := Solve(p)
		if err != nil {
			t.Fatalf("Solve failed on valid input: %v\nproblem: %+v", err, p)
		}
		if len(alloc) != nFlows {
			t.Fatalf("allocated %d flows, want %d", len(alloc), nFlows)
		}

		const eps = 1e-6
		load := make(map[string]float64, nLinks)
		for name, fl := range p.Flows {
			rate := alloc[name]
			if rate < 0 {
				t.Fatalf("flow %s allocated negative rate %g", name, rate)
			}
			if fl.Demand > 0 && rate > fl.Demand+eps {
				t.Fatalf("flow %s allocated %g beyond demand %g", name, rate, fl.Demand)
			}
			for _, l := range fl.Links {
				load[l] += rate
			}
		}
		for l, used := range load {
			if used > p.Capacity[l]+eps {
				t.Fatalf("link %s over-subscribed: load %g > capacity %g", l, used, p.Capacity[l])
			}
		}
		// Max-min optimality witness: a flow not capped by its own demand
		// must cross at least one saturated link — otherwise its rate
		// could grow, contradicting the water-filling construction.
		for name, fl := range p.Flows {
			rate := alloc[name]
			if fl.Demand > 0 && rate >= fl.Demand-eps {
				continue
			}
			bottlenecked := false
			for _, l := range fl.Links {
				if load[l] >= p.Capacity[l]-eps {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				t.Fatalf("flow %s (rate %g, demand %g) is neither demand-capped nor bottlenecked", name, rate, fl.Demand)
			}
		}
	})
}
