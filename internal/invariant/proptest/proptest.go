// Package proptest generates randomized scenarios for the correctness
// harness: seeded random topologies (rendered through the topospec
// language, so the parser is on the tested path), weights, and activity
// schedules drive the Corelite simulation, the weighted-CSFQ simulation,
// and the analytical max-min solver through the same specification. The
// package's tests assert the differential and metamorphic properties the
// paper implies:
//
//   - Structural invariants (conservation, queue bounds, marker
//     accounting) hold on every randomly generated run, for both schemes.
//   - The analytical oracle is feasible for every generated topology.
//   - Uniformly scaling all weights leaves the max-min allocation
//     unchanged (weights are ratios, not magnitudes).
//   - Relabeling nodes leaves the oracle's per-flow rates unchanged.
//   - A batch run serially is byte-identical to the same batch run in
//     parallel, with checkers attached.
package proptest

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/topospec"
)

// SpecParams bounds the random topology generator.
type SpecParams struct {
	// MaxCores bounds the chain length (1..MaxCores core routers);
	// 0 means 4.
	MaxCores int
	// MaxFlows bounds the flow count (1..MaxFlows); 0 means 6.
	MaxFlows int
}

// RandomSpecText renders a random linear-chain cloud in the topospec
// language: E_i edge nodes feeding a chain of core routers, every flow
// entering at a random edge and leaving at the chain's far side, with
// random weights. Links are duplex, so every core's feedback has a path
// back to the flow's ingress. The text form keeps the parser on the tested path and
// doubles as a fuzz-corpus generator.
func RandomSpecText(rng *rand.Rand, p SpecParams) string {
	if p.MaxCores <= 0 {
		p.MaxCores = 4
	}
	if p.MaxFlows <= 0 {
		p.MaxFlows = 6
	}
	cores := 1 + rng.Intn(p.MaxCores)
	flows := 1 + rng.Intn(p.MaxFlows)

	var b strings.Builder
	fmt.Fprintf(&b, "# random chain: %d cores, %d flows\n", cores, flows)
	for i := 1; i <= flows; i++ {
		fmt.Fprintf(&b, "node I%d edge\n", i)
	}
	b.WriteString("node SINK edge\n")
	for c := 1; c <= cores; c++ {
		fmt.Fprintf(&b, "node C%d core\n", c)
	}
	// Access links are over-provisioned so the core chain is always the
	// bottleneck; core capacities vary to move the bottleneck around.
	for i := 1; i <= flows; i++ {
		entry := 1 + rng.Intn(cores)
		fmt.Fprintf(&b, "duplex I%d C%d 8Mbps 1ms queue=64\n", i, entry)
		w := 1 + rng.Intn(4)
		fmt.Fprintf(&b, "flow %d I%d SINK weight=%d\n", i, i, w)
	}
	for c := 1; c < cores; c++ {
		rate := 2 + rng.Intn(4) // 2..5 Mbps
		fmt.Fprintf(&b, "duplex C%d C%d %dMbps 2ms queue=64\n", c, c+1, rate)
	}
	fmt.Fprintf(&b, "duplex C%d SINK %dMbps 1ms queue=64\n", cores, 2+rng.Intn(4))
	return b.String()
}

// RandomSpec parses a RandomSpecText topology.
func RandomSpec(rng *rand.Rand, p SpecParams) (*topospec.Spec, error) {
	text := RandomSpecText(rng, p)
	spec, err := topospec.Parse(strings.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("generated spec failed to parse: %w\n%s", err, text)
	}
	return spec, nil
}

// RandomScenario wraps a random spec into a runnable scenario for the
// given scheme, with an attached invariant checker. The duration stays
// short (structural invariants are exact from the first event; only the
// fairness residual needs steady state, and it is skipped below
// MinSteady).
func RandomScenario(rng *rand.Rand, scheme experiments.Scheme, spec *topospec.Spec, seed int64) experiments.Scenario {
	return experiments.Scenario{
		Name:     fmt.Sprintf("proptest-%s-%d", scheme, seed),
		Scheme:   scheme,
		Spec:     spec,
		Seed:     seed,
		Duration: time.Duration(4+rng.Intn(5)) * time.Second,
		Check:    invariant.New(invariant.Config{Every: 500 * time.Millisecond}),
	}
}
