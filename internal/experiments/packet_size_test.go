package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topogen"
)

// buildBytes reports the bytes building the generated spec allocates, and
// the spec's node, link and flow counts.
func buildBytes(t *testing.T, topo string) (bytes, nodes, links, flows float64) {
	t.Helper()
	cfg, err := topogen.Parse(topo)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cfg.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cloud, err := spec.Build(sim.NewScheduler())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(cloud)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(len(spec.Nodes)), float64(len(spec.Links)), float64(len(spec.Flows))
}

// TestPacketBuildMemoryLinearInFlows builds, without running, fat-tree
// packet clouds at 256 and 1 024 flows: the bytes allocated per flow must
// not grow with the network, as an all-pairs routing table's would (at
// 1 024 flows one pointer per node pair is 34 MB). The size pre-flight's
// per-item costs must cover what each build allocates, without
// overestimating it more than threefold.
func TestPacketBuildMemoryLinearInFlows(t *testing.T) {
	var perFlow []float64
	for _, topo := range []string{"fattree:k=4,flows=256", "fattree:k=4,flows=1024"} {
		bytes, nodes, links, flows := buildBytes(t, topo)
		perFlow = append(perFlow, bytes/flows)
		estimate := float64(nodes*packetBytesPerNode) + float64(links*packetBytesPerLink) + float64(flows*packetBytesPerFlow)
		t.Logf("%s: %.0f nodes, %.0f links: build allocates %.0f B (%.0f B per flow); pre-flight estimate %.0f B",
			topo, nodes, links, bytes, bytes/flows, estimate)
		if estimate < bytes || estimate > 3*bytes {
			t.Errorf("%s: pre-flight estimate %.0f B, build allocates %.0f B", topo, estimate, bytes)
		}
	}
	if perFlow[1] > 1.25*perFlow[0] {
		t.Errorf("build allocates %.0f B per flow at 1 024 flows, %.0f B at 256: more than 1.25x", perFlow[1], perFlow[0])
	}
}

// TestPacketSizePreflight refuses a packet build past the limit in one
// line, before generating anything, and admits the largest packet scenario
// the repository runs.
func TestPacketSizePreflight(t *testing.T) {
	huge, err := ParseGenerate("fattree:k=8,flows=5000000", "")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Run(Scenario{Name: "huge", Duration: 2 * time.Second, Generate: huge})
	if err == nil || !strings.Contains(err.Error(), "packet backend would need about 32.5 GB") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("Run = %v, want the one-line packet size refusal", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("refusal took %v, want it before any allocation", elapsed)
	}
	if err := checkPacketSize(32788, 65600, 16384); err != nil {
		t.Errorf("the 16 384-flow fat-tree is refused: %v", err)
	}
}

// directBuildBytes reports the bytes normalize and buildFlowModel allocate
// for a flow-backend scenario on the generated topology, and its flow count.
func directBuildBytes(t *testing.T, topo string) (bytes, flows float64) {
	t.Helper()
	gen, err := ParseGenerate(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Scheme: SchemeCorelite, Backend: BackendFlow, Duration: time.Second, Seed: 1, Generate: gen}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	norm, err := sc.normalize()
	if err != nil {
		t.Fatal(err)
	}
	m, err := buildFlowModel(norm)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(len(m.Flows))
}

// TestDirectBuildBytesPerFlow generates and builds, without running, the
// fluid model of fat-tree scenarios at 2 048 and 8 192 flows. The bytes per
// flow must not grow with the flow count, and must stay under a budget of
// 1.5x what the build measures since the model became its one flow
// description: about 1 210 B per flow with Go 1.24. The name-keyed builder
// took 2 700–2 800 B, and the dense one that still made a string placement
// per flow beside the model 1 380–1 410 B, so a name-keyed map or a second
// per-flow copy creeping back into the build fails here.
func TestDirectBuildBytesPerFlow(t *testing.T) {
	const budget = 1.5 * 1210
	var perFlow []float64
	for _, topo := range []string{"fattree:k=8,flows=2048", "fattree:k=8,flows=8192"} {
		bytes, flows := directBuildBytes(t, topo)
		perFlow = append(perFlow, bytes/flows)
		t.Logf("%s: normalize and build allocate %.0f B (%.0f B per flow)", topo, bytes, bytes/flows)
		if bytes/flows > budget {
			t.Errorf("%s: %.0f B per flow, over the budget of %.0f", topo, bytes/flows, budget)
		}
	}
	if lo, hi := min(perFlow[0], perFlow[1]), max(perFlow[0], perFlow[1]); hi > 1.1*lo {
		t.Errorf("build allocates %.0f B per flow at 2 048 flows and %.0f B at 8 192: more than 10%% apart", perFlow[0], perFlow[1])
	}
}

// TestChainBuildAllocsPerFlow builds, without running, the fluid model of
// the 1000-core chain with 10 000 flows. A chain flow is its weight, floor
// and link path and nothing more, so the build makes about one allocation
// per flow (its path) plus the per-link names and the growth of the flow
// table: 1.26 per flow with Go 1.24, where a second, name-keyed copy of
// each flow beside the model took 2.26. The pin is 1.3.
func TestChainBuildAllocsPerFlow(t *testing.T) {
	const flows = 10_000
	sc, err := Scenario{
		Scheme: SchemeCorelite, Backend: BackendFlow, Duration: time.Second, Seed: 1,
		Chain: &ChainTopology{Cores: 1000, Flows: flows},
	}.prepare()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := buildFlowModel(sc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("chain build: %.0f allocations (%.3f per flow)", allocs, allocs/flows)
	if allocs/flows >= 1.3 {
		t.Errorf("chain build makes %.3f allocations per flow, want fewer than 1.3", allocs/flows)
	}
}
