package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topospec"
)

// scaleSpecRaw returns a generated fat-tree scenario above the solver's
// size cutoff, with a heavy-tailed workload so weights vary and some flows
// are unresponsive blasts.
func scaleSpecRaw(t *testing.T, scheme Scheme) Scenario {
	t.Helper()
	g, err := ParseGenerate("fattree:k=4,flows=300", "heavytail:elephants=0.2,eweight=4,unresp=0.05,urate=400")
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Name:     "scale-spec-" + scheme.String(),
		Scheme:   scheme,
		Backend:  BackendFlow,
		Duration: 60 * time.Second,
		Seed:     3,
		Generate: g,
	}
}

// scaleSpecScenario is scaleSpecRaw, normalized.
func scaleSpecScenario(t *testing.T, scheme Scheme) Scenario {
	t.Helper()
	norm, err := scaleSpecRaw(t, scheme).normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(norm.Spec.Flows) < 300 {
		t.Fatalf("generated only %d flows", len(norm.Spec.Flows))
	}
	return norm
}

// pinnedY is a hand-written fully pinned cloud: two branches merging into a
// trunk, every flow naming its hops.
const pinnedY = `
node A core
node B core
node C core
node D core
duplex A C 4Mbps 10ms
duplex B C 4Mbps 10ms
duplex C D 4Mbps 10ms
node in1 edge
node in2 edge
node out1 edge
node out2 edge
duplex in1 A 40Mbps 1ms
duplex in2 B 40Mbps 1ms
duplex D out1 40Mbps 1ms
duplex D out2 40Mbps 1ms
flow 1 in1 out1 weight=1 via=in1:A:C:D:out1
flow 2 in2 out2 weight=3 min=50 via=in2:B:C:D:out2
`

func parseSpec(t *testing.T, text string) *topospec.Spec {
	t.Helper()
	spec, err := topospec.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return spec
}

// TestDirectSpecBuildMatchesGeneric pins the interchangeability of the
// capacity-graph builders at every size: whichever builder buildFlowModel
// picks from the input's shape — the direct one for fully pinned specs, the
// cloud for routed ones — the model (links, capacities, flows, placements
// including relays) is exactly the one mirrored from the packet cloud.
func TestDirectSpecBuildMatchesGeneric(t *testing.T) {
	type builderCase struct {
		name   string
		sc     Scenario
		pinned bool
	}
	base := Scenario{Scheme: SchemeCorelite, Backend: BackendFlow, Duration: 60 * time.Second, Seed: 3}
	cases := []builderCase{{name: "topospec file", sc: base, pinned: true}}
	cases[0].sc.Spec = parseSpec(t, pinnedY)
	for _, g := range []struct {
		topo, traffic string
		pinned        bool
	}{
		{"fattree:k=4,flows=8", "", true},
		{"fattree:k=4,flows=300", "heavytail:elephants=0.2,eweight=4,unresp=0.05,urate=400", true},
		{"fattree:k=8,flows=48", "heavytail:unresp=0.1,urate=350", true},
		{"fattree:k=8,flows=300", "churn:heavy=0.25,settle=20s", true},
		{"nclouds:n=3,through=2,local=2", "", true},
		{"nclouds:n=3,through=2,local=2,remark=1", "", true},
		{"nclouds:n=4,through=100,local=50,remark=1", "", true},
		// Meshes leave their paths to shortest-path routing, so they keep
		// needing the routed cloud.
		{"mesh:nodes=8", "", false},
		{"mesh:nodes=12,degree=2,flows=40", "uniform", false},
	} {
		gen, err := ParseGenerate(g.topo, g.traffic)
		if err != nil {
			t.Fatal(err)
		}
		sc := base
		sc.Generate = gen
		cases = append(cases, builderCase{g.topo, sc, g.pinned})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sc, err := tc.sc.normalize()
			if err != nil {
				t.Fatal(err)
			}
			if got := specFullyPinned(sc.Spec); got != tc.pinned {
				t.Fatalf("specFullyPinned = %v, want %v", got, tc.pinned)
			}
			built, err := buildFlowModel(sc)
			if err != nil {
				t.Fatal(err)
			}
			cloud, err := buildCloud(sc, sim.NewScheduler())
			if err != nil {
				t.Fatal(err)
			}
			generic, err := cloudModel(sc, cloud)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(built.model.Links, generic.model.Links) {
				t.Errorf("link tables differ: built has %d links, cloud %d",
					len(built.model.Links), len(generic.model.Links))
			}
			if !reflect.DeepEqual(built.model.Flows, generic.model.Flows) {
				t.Errorf("flow tables differ: built has %d flows, cloud %d",
					len(built.model.Flows), len(generic.model.Flows))
			}
			if !reflect.DeepEqual(built.placements, generic.placements) {
				t.Error("placements differ between the built model and the cloud's")
			}
		})
	}
}

// TestDirectSpecBuildValidatesOnce pins the validate-once rule on the direct
// builder: a caller-supplied Scenario.Spec gets topospec's full validation
// there (nothing else on the fluid path looks at it), while a spec normalize
// expanded from Generate was validated by topogen and is not walked again.
// The probe is a defect only Validate reports — a node declared twice — which
// the model build itself never trips over.
func TestDirectSpecBuildValidatesOnce(t *testing.T) {
	sc := scaleSpecScenario(t, SchemeCorelite)
	spec := *sc.Spec
	spec.Nodes = append(append([]topospec.NodeSpec(nil), spec.Nodes...), spec.Nodes[0])
	sc.Spec = &spec
	if _, err := buildSpecModelDirect(sc); err != nil {
		t.Errorf("generated spec was validated a second time: %v", err)
	}
	sc.Generate = nil
	if _, err := buildSpecModelDirect(sc); err == nil || !strings.Contains(err.Error(), "duplicate node") {
		t.Errorf("caller-supplied spec: err = %v, want topospec's duplicate-node rejection", err)
	}
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "duplicate node") {
		t.Errorf("Run on a caller-supplied invalid spec: err = %v, want topospec's duplicate-node rejection", err)
	}
}

// TestSmallPinnedSpecDefectsRejected: a small caller-supplied pinned spec
// reaches the fluid model through the direct builder, and its defects are
// refused with the same errors the packet cloud's Build gave it.
func TestSmallPinnedSpecDefectsRejected(t *testing.T) {
	run := func(spec *topospec.Spec) error {
		_, err := Run(Scenario{Scheme: SchemeCorelite, Backend: BackendFlow, Duration: time.Second, Spec: spec})
		return err
	}
	if err := run(parseSpec(t, pinnedY)); err != nil {
		t.Fatalf("sound spec rejected: %v", err)
	}
	hop := parseSpec(t, pinnedY)
	hop.Flows[0].Via = []string{"in1", "A", "D", "out1"}
	if err, want := run(hop), "build flow model: topospec: flow 1 via hop A->D has no link (disconnected path)"; err == nil || err.Error() != want {
		t.Errorf("via hop that is not a link: err = %v, want %q", err, want)
	}
	dup := parseSpec(t, pinnedY)
	dup.Nodes = append(dup.Nodes, dup.Nodes[0])
	if err, want := run(dup), `build flow model: topospec: duplicate node "A"`; err == nil || err.Error() != want {
		t.Errorf("node declared twice: err = %v, want %q", err, want)
	}
}
