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
	// Cross traffic on a crossed core link, on a core link no flow crosses
	// and on a promoted access link: the one case the builders resolve
	// link names for.
	cross := builderCase{name: "topospec file with cross traffic", sc: base, pinned: true}
	cross.sc.Spec = parseSpec(t, pinnedY)
	cross.sc.Cross = []CrossTraffic{{Link: "C->D", Rate: 100}, {Link: "C->A", Rate: 50}, {Link: "in1->A", Rate: 200, MeanOn: time.Second, MeanOff: time.Second}}
	cases = append(cases, cross)
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
			if !reflect.DeepEqual(built.Links, generic.Links) {
				t.Errorf("link tables differ: built has %d links, cloud %d",
					len(built.Links), len(generic.Links))
			}
			if !reflect.DeepEqual(built.Flows, generic.Flows) {
				t.Errorf("flow tables differ: built has %d flows, cloud %d",
					len(built.Flows), len(generic.Flows))
			}
		})
	}
}

// TestDirectSpecBuildValidatesOnce pins the rule that each spec is
// validated exactly once, by the builder that uses it. The generators do not
// check their output (TestGeneratedSpecsValidate pins their contract
// instead), so a spec normalize expanded from Generate reaches its builder
// unchecked, and the builder refuses a defect in it as it refuses one in a
// caller-supplied spec: the direct builder through Resolve, the packet
// cloud through Spec.Build. The probe is a defect only validation reports —
// a node declared twice — which the model build itself never trips over.
func TestDirectSpecBuildValidatesOnce(t *testing.T) {
	sc := scaleSpecScenario(t, SchemeCorelite)
	spec := *sc.Spec
	spec.Nodes = append(append([]topospec.NodeSpec(nil), spec.Nodes...), spec.Nodes[0])
	sc.Spec = &spec
	want := `topospec: duplicate node "cs0"`
	if _, err := buildSpecModelDirect(sc); err == nil || err.Error() != want {
		t.Errorf("generated spec, direct builder: err = %v, want %q", err, want)
	}
	if _, err := buildCloud(sc, sim.NewScheduler()); err == nil || err.Error() != want {
		t.Errorf("generated spec, packet cloud: err = %v, want %q", err, want)
	}
	sc.Generate = nil
	if _, err := buildSpecModelDirect(sc); err == nil || err.Error() != want {
		t.Errorf("caller-supplied spec: err = %v, want %q", err, want)
	}
	if _, err := Run(sc); err == nil || err.Error() != "build flow model: "+want {
		t.Errorf("Run on a caller-supplied invalid spec: err = %v, want topospec's duplicate-node rejection", err)
	}
}

// TestDuplicateLinkRefusedOnBothBackends: a spec that declares one link
// twice used to be refused by the packet backend (netem: duplicate link)
// but run by the fluid one at the last declaration's rate. Validation
// refuses it now, in one line, on both backends and in Parse.
func TestDuplicateLinkRefusedOnBothBackends(t *testing.T) {
	text := pinnedY + "link C D 1Mbps 10ms\n"
	const want = "topospec: duplicate link C->D"
	if _, err := topospec.Parse(strings.NewReader(text)); err == nil || err.Error() != want {
		t.Errorf("Parse: err = %v, want %q", err, want)
	}
	for _, backend := range []Backend{BackendPacket, BackendFlow} {
		spec := parseSpec(t, pinnedY)
		spec.Links = append(spec.Links, topospec.LinkSpec{From: "C", To: "D", RateBps: 1e6, Delay: 10 * time.Millisecond})
		_, err := Run(Scenario{Scheme: SchemeCorelite, Backend: backend, Duration: time.Second, Spec: spec})
		if err == nil || !strings.HasSuffix(err.Error(), want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s backend: err = %v, want one line ending in %q", backend, err, want)
		}
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
	offPath := Scenario{Spec: parseSpec(t, pinnedY), Cross: []CrossTraffic{{Link: "A->in1", Rate: 10}}}
	if _, err := buildSpecModelDirect(offPath); err == nil || err.Error() != `cross stream 0: unknown link "A->in1"` {
		t.Errorf("cross traffic on a link that is neither core nor crossed: err = %v", err)
	}
	dup := parseSpec(t, pinnedY)
	dup.Nodes = append(dup.Nodes, dup.Nodes[0])
	if err, want := run(dup), `build flow model: topospec: duplicate node "A"`; err == nil || err.Error() != want {
		t.Errorf("node declared twice: err = %v, want %q", err, want)
	}
}
