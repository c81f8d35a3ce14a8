package topospec

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/maxmin"
	"repro/internal/sim"
	"repro/internal/topology"
)

// expectedRates solves the cloud's max-min problem on the reference solver,
// keyed by flow index.
func expectedRates(t *testing.T, c *topology.Cloud) map[int]float64 {
	t.Helper()
	alloc, err := maxmin.SolveWithMinimums(c.MaxMinProblem(nil), nil)
	if err != nil {
		t.Fatalf("maxmin: %v", err)
	}
	rates := make(map[int]float64, len(alloc))
	for name, r := range alloc {
		idx, err := strconv.Atoi(name)
		if err != nil {
			t.Fatalf("flow key %q: %v", name, err)
		}
		rates[idx] = r
	}
	return rates
}

const ySpec = `
# Y-shaped cloud: two branches merging into a trunk
node A core
node B core
node C core
node D core
duplex A C 4Mbps 10ms
duplex B C 4Mbps 10ms
duplex C D 4Mbps 10ms queue=40

node in1 edge
node in2 edge
node out1 edge
node out2 edge
duplex in1 A 40Mbps 1ms
duplex in2 B 40Mbps 1ms
duplex D out1 40Mbps 1ms
duplex D out2 40Mbps 1ms

flow 1 in1 out1 weight=1
flow 2 in2 out2 weight=3 min=50
`

func TestParseYSpec(t *testing.T) {
	spec, err := Parse(strings.NewReader(ySpec))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(spec.Nodes) != 8 {
		t.Errorf("nodes = %d, want 8", len(spec.Nodes))
	}
	if len(spec.Links) != 14 { // 7 duplex pairs
		t.Errorf("links = %d, want 14", len(spec.Links))
	}
	if len(spec.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(spec.Flows))
	}
	if w1, w2 := spec.Flows[0].Weight, spec.Flows[1].Weight; w1 != 1 || w2 != 3 {
		t.Errorf("weights = %v, %v; want 1, 3", w1, w2)
	}
	if m := spec.MinRates(); m[2] != 50 || len(m) != 1 {
		t.Errorf("minrates = %v", m)
	}
}

func TestParseBandwidth(t *testing.T) {
	tests := []struct {
		in   string
		want float64
		err  bool
	}{
		{"4Mbps", 4e6, false},
		{"500kbps", 5e5, false},
		{"1.5Gbps", 1.5e9, false},
		{"250bps", 250, false},
		{"99", 99, false}, // bare number = bps
		{"fast", 0, true},
		{"-4Mbps", 0, true},
		{"0bps", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseBandwidth(tt.in)
		if tt.err {
			if err == nil {
				t.Errorf("ParseBandwidth(%q) succeeded, want error", tt.in)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("ParseBandwidth(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want string
	}{
		{"bad directive", "frobnicate x", "unknown directive"},
		{"bad role", "node A middle", "unknown node role"},
		{"short link", "node A core\nlink A", "link wants"},
		{"bad rate", "node A core\nnode B core\nlink A B fast 1ms\nnode e edge\nflow 1 e e", "bad rate"},
		{"bad delay", "node A core\nnode B core\nlink A B 4Mbps soon", "bad delay"},
		{"bad queue", "node A core\nnode B core\nlink A B 4Mbps 1ms queue=-2", "bad queue size"},
		{"bad flow index", "node e edge\nflow zero e e", "bad flow index"},
		{"bad flow option", "node e edge\nflow 1 e e turbo=1", "unknown flow option"},
		{"negative weight", "node e edge\nflow 1 e e weight=-1", "weight must be positive"},
		{"unknown link node", "node A core\nlink A B 4Mbps 1ms\nnode e edge\nflow 1 e e", "unknown node"},
		{"flow from core", "node A core\nnode e edge\nflow 1 A e", "not an edge node"},
		{"dup node", "node A core\nnode A core\nnode e edge\nflow 1 e e", "duplicate node"},
		{"dup flow", "node e edge\nflow 1 e e\nflow 1 e e", "duplicate flow index"},
		{"no flows", "node A core", "no flows"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tt.in))
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestParseErrorLineNumbers(t *testing.T) {
	_, err := Parse(strings.NewReader("node A core\n\nbogus line here\n"))
	if err == nil {
		t.Fatal("want error")
	}
	var pe *ParseError
	if !asParseError(err, &pe) {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
}

func asParseError(err error, out **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*out = pe
	}
	return ok
}

func TestBuildYSpec(t *testing.T) {
	spec, err := Parse(strings.NewReader(ySpec))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s := sim.NewScheduler()
	cloud, err := spec.Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(cloud.CoreNodes) != 4 {
		t.Errorf("core nodes = %v, want 4", cloud.CoreNodes)
	}
	// Both flows cross the trunk C->D; flow 1 also crosses A->C.
	var p1, p2 []string
	for _, pl := range cloud.Placements {
		switch pl.Index {
		case 1:
			p1 = pl.CoreLinks
		case 2:
			p2 = pl.CoreLinks
		}
	}
	if len(p1) != 2 || p1[0] != "A->C" || p1[1] != "C->D" {
		t.Errorf("flow 1 core links = %v, want [A->C C->D]", p1)
	}
	if len(p2) != 2 || p2[0] != "B->C" || p2[1] != "C->D" {
		t.Errorf("flow 2 core links = %v, want [B->C C->D]", p2)
	}
	// The oracle on the trunk (500 pkt/s shared 1:3).
	rates := expectedRates(t, cloud)
	if rates[1] < 124 || rates[1] > 126 {
		t.Errorf("expected[1] = %v, want 125", rates[1])
	}
	if rates[2] < 374 || rates[2] > 376 {
		t.Errorf("expected[2] = %v, want 375", rates[2])
	}
	// Propagation sanity: in1 -> out1 = 1 + 10 + 10 + 1 ms.
	d, err := cloud.Net.PathDelay("in1", "out1")
	if err != nil {
		t.Fatalf("PathDelay: %v", err)
	}
	if d != 22*time.Millisecond {
		t.Errorf("path delay = %v, want 22ms", d)
	}
}

func TestBuildEdgeOnlyPathUsesTightestLink(t *testing.T) {
	// No core-core link on the path: the oracle constraint falls back to
	// the narrowest link.
	in := `
node e1 edge
node e2 edge
node R core
duplex e1 R 10Mbps 1ms
duplex R e2 2Mbps 1ms
flow 1 e1 e2
`
	spec, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cloud, err := spec.Build(sim.NewScheduler())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	pl := cloud.Placements[0]
	if len(pl.CoreLinks) != 1 || pl.CoreLinks[0] != "R->e2" {
		t.Errorf("core links = %v, want the 2Mbps bottleneck R->e2", pl.CoreLinks)
	}
	rates := expectedRates(t, cloud)
	if rates[1] != 250 {
		t.Errorf("expected = %v, want 250 (2Mbps / 1KB)", rates[1])
	}
}

// TestBuildPinsRelaySegments builds a re-marked flow whose first control
// segment detours through b although the gateway g is one hop from a:
// packets addressed to the gateway follow the pinned segment, and the
// control plane times each segment back to its own edge.
func TestBuildPinsRelaySegments(t *testing.T) {
	in := `
node in edge
node a core
node b core
node g edge
node c core
node out edge
duplex in a 10Mbps 1ms
duplex a g 10Mbps 1ms
duplex a b 10Mbps 2ms
duplex b g 10Mbps 2ms
duplex g c 10Mbps 3ms
duplex c out 10Mbps 1ms
flow 1 in out via=in:a:b:g:c:out relay=g
`
	spec, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := spec.Build(sim.NewScheduler())
	if err != nil {
		t.Fatal(err)
	}
	if path, err := cloud.Net.Path("in", "g"); err != nil || strings.Join(path, " ") != "in a b g" {
		t.Errorf("Path(in, g) = %v (%v), want the pinned segment in a b g", path, err)
	}
	for _, c := range []struct {
		from, to string
		want     time.Duration
	}{{"b", "in", 3 * time.Millisecond}, {"g", "in", 5 * time.Millisecond}, {"c", "g", 3 * time.Millisecond}, {"out", "g", 4 * time.Millisecond}} {
		if got, err := cloud.Net.PathDelay(c.from, c.to); err != nil || got != c.want {
			t.Errorf("PathDelay(%s, %s) = %v (%v), want %v", c.from, c.to, got, err, c.want)
		}
	}
}

// TestResolveDenseIDs pins Resolve's dense form: each flow's via path as
// link indices in CSR form, in flow order, with an empty range for a routed
// flow, and each link's endpoint roles.
func TestResolveDenseIDs(t *testing.T) {
	spec, err := Parse(strings.NewReader(`
node A core
node B core
node in1 edge
node out1 edge
node in2 edge
node out2 edge
link in1 A 10Mbps 1ms
link A B 4Mbps 10ms
link B out1 10Mbps 1ms
link in2 A 10Mbps 1ms
link B out2 10Mbps 1ms
flow 2 in2 out2 via=in2:A:B:out2
flow 1 in1 out1
`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(r.Start, r.Hops), "[0 3 3] [3 1 4]"; got != want {
		t.Errorf("Start, Hops = %s, want %s", got, want)
	}
	if got := fmt.Sprint(r.Path(0), r.Path(1)); got != "[3 1 4] []" {
		t.Errorf("paths = %s", got)
	}
	core, edge := RoleCore, RoleEdge
	want := [][2]NodeRole{{edge, core}, {core, core}, {core, edge}, {edge, core}, {core, edge}}
	if fmt.Sprint(r.Roles) != fmt.Sprint(want) {
		t.Errorf("Roles = %v, want %v", r.Roles, want)
	}
}
