package experiments

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/topospec"
	"repro/internal/workload"
)

func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
		err  bool
	}{
		{"", BackendPacket, false},
		{"packet", BackendPacket, false},
		{"flow", BackendFlow, false},
		{"fluid", BackendFlow, false},
		{"quantum", 0, true},
		{"Packet", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseBackend(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseBackend(%q): no error", tc.in)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseBackend(%q) = (%v, %v), want %v", tc.in, got, err, tc.want)
		}
	}
	if got := BackendPacket.String(); got != "packet" {
		t.Errorf("BackendPacket.String() = %q", got)
	}
	if got := BackendFlow.String(); got != "flow" {
		t.Errorf("BackendFlow.String() = %q", got)
	}
	if got := Backend(7).String(); !strings.Contains(got, "7") {
		t.Errorf("Backend(7).String() = %q", got)
	}
}

func baseScenario() Scenario {
	return Scenario{
		Name:     "t",
		Scheme:   SchemeCorelite,
		Duration: time.Second,
		NumFlows: 2,
	}
}

func TestValidateBackend(t *testing.T) {
	sc := baseScenario()
	sc.Backend = Backend(42)
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("unknown backend: err = %v", err)
	}

	// The flow backend rejects packet-only knobs with actionable errors.
	sc = baseScenario()
	sc.Backend = BackendFlow
	sc.Transports = map[int]Transport{1: TransportTCP}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "packet backend") {
		t.Errorf("flow+TCP: err = %v", err)
	}

	sc = baseScenario()
	sc.Backend = BackendFlow
	sc.Tracer = &netem.WriterTracer{W: io.Discard}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "packet backend") {
		t.Errorf("flow+tracer: err = %v", err)
	}

	// The same knobs are fine on the packet backend.
	sc = baseScenario()
	sc.Transports = map[int]Transport{1: TransportTCP}
	sc.Tracer = &netem.WriterTracer{W: io.Discard}
	if err := sc.Validate(); err != nil {
		t.Errorf("packet backend with TCP+tracer: %v", err)
	}
}

func TestValidateChain(t *testing.T) {
	chain := func() Scenario {
		sc := baseScenario()
		sc.NumFlows = 0
		sc.Backend = BackendFlow
		sc.Chain = &ChainTopology{Cores: 5, Flows: 10}
		norm, err := sc.normalize()
		if err != nil {
			t.Fatalf("normalize: %v", err)
		}
		return norm
	}

	if err := chain().Validate(); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}

	sc := chain()
	sc.Backend = BackendPacket
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "flow backend") {
		t.Errorf("chain on packet backend: err = %v", err)
	}

	sc = chain()
	sc.Chain.Cores = 1
	if err := sc.Validate(); err == nil {
		t.Error("1-core chain accepted")
	}

	sc = chain()
	sc.Chain.Flows = 0
	sc.NumFlows = 0
	if err := sc.Validate(); err == nil {
		t.Error("0-flow chain accepted")
	}

	sc = chain()
	sc.Dumbbell = true
	if err := sc.Validate(); err == nil {
		t.Error("chain+dumbbell accepted")
	}
}

// TestExpectedRatesAtRefusesWhatRunRefuses: the public oracle prepares a
// scenario exactly as Run does, so each invalid chain of TestValidateChain
// comes back with Run's error, not with a panic or an empty answer.
func TestExpectedRatesAtRefusesWhatRunRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Scenario)
	}{
		{"packet backend", func(sc *Scenario) { sc.Backend = BackendPacket }},
		{"1 core", func(sc *Scenario) { sc.Chain.Cores = 1 }},
		{"0 flows", func(sc *Scenario) { sc.Chain.Flows = 0 }},
		{"dumbbell", func(sc *Scenario) { sc.Dumbbell = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := Scenario{
				Scheme: SchemeCorelite, Backend: BackendFlow, Duration: 10 * time.Second,
				Chain: &ChainTopology{Cores: 5, Flows: 3},
			}
			tc.edit(&sc)
			_, runErr := Run(sc)
			if runErr == nil {
				t.Fatal("Run accepted the scenario")
			}
			rates, err := ExpectedRatesAt(sc, 5*time.Second)
			if err == nil || err.Error() != runErr.Error() {
				t.Errorf("ExpectedRatesAt = (%v, %v), want Run's error %q", rates, err, runErr)
			}
		})
	}
}

// TestValidateChainBeforeNormalize: Validate is public, and callers run it on
// the scenario as they hand it to Run — before Run's normalisation derives
// NumFlows from the chain. A chain stands in for NumFlows there exactly like
// Spec and Generate do.
func TestValidateChainBeforeNormalize(t *testing.T) {
	sc := Scenario{
		Scheme:   SchemeCorelite,
		Duration: time.Second,
		Backend:  BackendFlow,
		Chain:    &ChainTopology{Cores: 5, Flows: 10},
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("un-normalised chain scenario rejected: %v", err)
	}
	sc.NumFlows = 10
	if err := sc.Validate(); err != nil {
		t.Errorf("chain scenario that sets NumFlows itself rejected: %v", err)
	}
	sc.NumFlows = 0
	sc.Chain = &ChainTopology{Cores: 5}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "at least 1 flow") {
		t.Errorf("0-flow chain: err = %v, want the chain's own rejection", err)
	}
	sc.Chain = nil
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "non-positive NumFlows") {
		t.Errorf("no topology source and no NumFlows: err = %v", err)
	}
}

// TestValidateRefusesKeysThatNameNoFlow: every per-flow map is held to the
// scenario's flows as Run sees them — 1..NumFlows, the chain's derived flow
// count, or a spec's own indices — so a key that names no flow is an error
// rather than a setting that silently does nothing.
func TestValidateRefusesKeysThatNameNoFlow(t *testing.T) {
	dumbbell := func() Scenario {
		return Scenario{Scheme: SchemeCorelite, Duration: time.Second, NumFlows: 2, Dumbbell: true}
	}
	chain := func() Scenario {
		return Scenario{Scheme: SchemeCorelite, Duration: time.Second, Backend: BackendFlow, Chain: &ChainTopology{Cores: 5, Flows: 10}}
	}
	spec, err := topospec.Parse(strings.NewReader(`
node A core
node B core
duplex A B 4Mbps 10ms
node in edge
node out edge
duplex in A 40Mbps 1ms
duplex B out 40Mbps 1ms
flow 2 in out
flow 5 in out
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	withSpec := func() Scenario { return Scenario{Scheme: SchemeCorelite, Duration: time.Second, Spec: spec} }
	// The same flows out of index order take the check's other path.
	reversed := *spec
	reversed.Flows = []topospec.FlowSpec{spec.Flows[1], spec.Flows[0]}
	withReversed := func() Scenario { return Scenario{Scheme: SchemeCorelite, Duration: time.Second, Spec: &reversed} }

	cases := []struct {
		name string
		sc   Scenario
		edit func(*Scenario)
		want string // "" when the scenario must validate
	}{
		{"weight past NumFlows", dumbbell(), func(sc *Scenario) { sc.Weights = map[int]float64{3: 4} }, "weight for flow 3"},
		{"schedule past NumFlows", dumbbell(), func(sc *Scenario) { sc.Schedules = map[int]workload.Schedule{3: workload.Always()} }, "schedule for flow 3"},
		{"minimum rate past NumFlows", dumbbell(), func(sc *Scenario) { sc.MinRates = map[int]float64{3: 100} }, "minimum rate for flow 3"},
		{"transport past NumFlows", dumbbell(), func(sc *Scenario) { sc.Transports = map[int]Transport{3: TransportTCP} }, "transport for flow 3"},
		{"unresponsive past NumFlows", dumbbell(), func(sc *Scenario) { sc.Unresponsive = map[int]float64{3: 500} }, "unresponsive for flow 3"},
		{"flow 0", dumbbell(), func(sc *Scenario) { sc.Weights = map[int]float64{0: 2, 1: 1} }, "weight for flow 0"},
		{"lowest stray index reported", dumbbell(), func(sc *Scenario) { sc.Weights = map[int]float64{9: 1, 4: 1, 7: 1} }, "weight for flow 4"},
		{"every flow named", dumbbell(), func(sc *Scenario) {
			sc.Weights = map[int]float64{1: 1, 2: 3}
			sc.Schedules = map[int]workload.Schedule{2: workload.Always()}
			sc.MinRates = map[int]float64{1: 100}
			sc.Transports = map[int]Transport{1: TransportTCP}
			sc.Unresponsive = map[int]float64{2: 500}
		}, ""},
		{"chain: past its derived flow count", chain(), func(sc *Scenario) { sc.MinRates = map[int]float64{11: 50} }, "minimum rate for flow 11"},
		{"chain: last flow", chain(), func(sc *Scenario) { sc.MinRates = map[int]float64{10: 50} }, ""},
		{"spec: index between its flows", withSpec(), func(sc *Scenario) { sc.Schedules = map[int]workload.Schedule{3: workload.Always()} }, "schedule for flow 3"},
		{"spec: its own sparse indices", withSpec(), func(sc *Scenario) { sc.Unresponsive = map[int]float64{5: 500} }, ""},
		{"spec out of index order: index between its flows", withReversed(), func(sc *Scenario) { sc.Schedules = map[int]workload.Schedule{3: workload.Always()} }, "schedule for flow 3"},
		{"spec out of index order: its own indices", withReversed(), func(sc *Scenario) { sc.Unresponsive = map[int]float64{2: 500, 5: 500} }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			tc.edit(&sc)
			// What Run does before choosing an engine.
			norm, err := sc.normalize()
			if err == nil {
				err = norm.Validate()
			}
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestChainRunFlow exercises the generated chain end to end on the flow
// backend: deterministic, non-trivial rates on every flow.
func TestChainRunFlow(t *testing.T) {
	sc := Scenario{
		Name:     "chain-smoke",
		Scheme:   SchemeCorelite,
		Duration: 30 * time.Second,
		Backend:  BackendFlow,
		Chain:    &ChainTopology{Cores: 10, Flows: 40},
		Seed:     3,
	}
	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Flows) != 40 {
		t.Fatalf("got %d flows, want 40", len(r1.Flows))
	}
	var total int64
	for _, f := range r1.Flows {
		total += f.Delivered
	}
	if total == 0 {
		t.Fatal("chain delivered nothing")
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Flows {
		if r1.Flows[i].Delivered != r2.Flows[i].Delivered {
			t.Fatalf("chain run not deterministic at flow %d", i)
		}
	}
}

// TestFlowBackendFigureShape pins the Result contract promises the Engine
// interface makes: same series grid, oracle and totals shape as the packet
// engine, whichever backend ran.
func TestFlowBackendFigureShape(t *testing.T) {
	sc := Fig5Scenario(1)
	sc.Duration = 20 * time.Second
	pr, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Backend = BackendFlow
	fr, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Flows) != len(pr.Flows) {
		t.Fatalf("flow backend: %d flows, packet %d", len(fr.Flows), len(pr.Flows))
	}
	for i := range fr.Flows {
		ff, pf := fr.Flows[i], pr.Flows[i]
		if ff.Index != pf.Index || ff.Weight != pf.Weight {
			t.Errorf("flow %d: identity mismatch (%d,%g) vs (%d,%g)",
				i, ff.Index, ff.Weight, pf.Index, pf.Weight)
		}
		if len(ff.ReceiveRate) != len(pf.ReceiveRate) {
			t.Errorf("flow %d: %d rate samples, packet %d",
				i, len(ff.ReceiveRate), len(pf.ReceiveRate))
		}
	}
	if len(fr.ExpectedFullSet) != len(pr.ExpectedFullSet) {
		t.Errorf("oracle sets differ: %d vs %d", len(fr.ExpectedFullSet), len(pr.ExpectedFullSet))
	}
}
