package experiments

import (
	"fmt"
	"time"
)

// Backend selects which execution engine runs a Scenario. The scenario
// layer (normalization, validation, schedules, the max-min oracle) is
// backend-neutral; the engines only differ in how they advance time.
type Backend int

const (
	// BackendPacket is the packet-level discrete-event engine — the
	// default, and the reference for every packet-scale effect (queueing,
	// marker sampling, drops).
	BackendPacket Backend = iota
	// BackendFlow is the flow-level fluid engine (internal/flowsim):
	// between rate-change events every flow runs at its demand-capped
	// weighted water-filling rate, with the LIMD loop driving demands.
	// Orders of magnitude faster; packet-level effects are abstracted
	// away.
	BackendFlow
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendPacket:
		return "packet"
	case BackendFlow:
		return "flow"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend maps the CLI spelling to a Backend. The empty string selects
// the packet default.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "packet":
		return BackendPacket, nil
	case "flow", "fluid":
		return BackendFlow, nil
	default:
		return 0, fmt.Errorf("experiments: unknown backend %q (want packet or flow)", s)
	}
}

// ChainTopology generates a synthetic linear chain of core nodes for the
// flow backend: Cores nodes joined by Cores−1 equal-capacity links, with
// each flow crossing a contiguous, seed-deterministic span of them. It is
// the scale playground the fluid engine exists for (thousands of nodes,
// tens of thousands of flows) and deliberately never builds a packet
// network, so it is rejected under the packet backend.
type ChainTopology struct {
	// Cores is the number of chain nodes (≥ 2); links are named
	// "C1->C2" … "C<n-1>->C<n>".
	Cores int
	// Flows is the number of generated flows.
	Flows int
	// CapacityPPS is the per-link capacity in pkt/s (0 → 500, the paper's
	// 4 Mb/s of 1 KB packets).
	CapacityPPS float64
	// MaxSpan caps how many consecutive links a flow crosses (0 → 4).
	MaxSpan int
}

// Run executes the scenario to completion and returns its measurements.
// The scenario is normalized and validated here, backend-neutrally; the
// selected engine does the rest. Both engines emit a *Result with the same
// shape: per-flow AllowedRate / ReceiveRate / Cumulative series sampled on
// the scenario's SampleWindow grid, run totals, the full-set oracle, and —
// when a checker is attached — invariant findings. Consumers (CSV writers,
// the run pool, the figures) never need to know which engine produced a
// Result.
func Run(sc Scenario) (*Result, error) {
	sc, err := sc.prepare()
	if err != nil {
		return nil, err
	}
	switch sc.Backend {
	case BackendFlow:
		return runFlow(sc)
	default: // Validate admitted only the two backends
		return runPacket(sc)
	}
}

// prepare is the one preparation Run and ExpectedRatesAt share: it
// normalizes the scenario, validates it and defaults SampleWindow, so the
// oracle refuses exactly the scenarios Run refuses.
func (sc Scenario) prepare() (Scenario, error) {
	sc, err := sc.normalize()
	if err != nil {
		return sc, err
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	if sc.SampleWindow <= 0 {
		sc.SampleWindow = time.Second
	}
	return sc, nil
}
