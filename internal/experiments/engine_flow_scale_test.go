package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/topospec"
)

// scaleSpecScenario returns a normalized fat-tree scenario big enough
// (≥ flowsim.IncrementalMinFlows flows) to take the direct spec→fluid
// build and the allocator-based oracle, with a heavy-tailed workload so
// weights vary and some flows are unresponsive blasts.
func scaleSpecScenario(t *testing.T, scheme Scheme) Scenario {
	t.Helper()
	g, err := ParseGenerate("fattree:k=4,flows=300", "heavytail:elephants=0.2,eweight=4,unresp=0.05,urate=400")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name:     "scale-spec",
		Scheme:   scheme,
		Backend:  BackendFlow,
		Duration: 60 * time.Second,
		Seed:     3,
		Generate: g,
	}
	norm, err := sc.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(norm.Spec.Flows) < 300 {
		t.Fatalf("generated only %d flows", len(norm.Spec.Flows))
	}
	if !specFullyPinned(norm.Spec) {
		t.Fatal("generated fat-tree spec is not fully pinned")
	}
	return norm
}

// TestDirectSpecBuildMatchesGeneric pins the interchangeability of the two
// spec→fluid builders: the direct one (no packet network) must produce the
// exact model — links, capacities, flows, placements — that the generic
// cloud-based builder does.
func TestDirectSpecBuildMatchesGeneric(t *testing.T) {
	sc := scaleSpecScenario(t, SchemeCorelite)
	direct, err := buildSpecModelDirect(sc)
	if err != nil {
		t.Fatal(err)
	}
	generic, err := buildCloudModel(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.model.Links, generic.model.Links) {
		t.Errorf("link tables differ: direct has %d links, generic %d",
			len(direct.model.Links), len(generic.model.Links))
	}
	if !reflect.DeepEqual(direct.model.Flows, generic.model.Flows) {
		t.Errorf("flow tables differ: direct has %d flows, generic %d",
			len(direct.model.Flows), len(generic.model.Flows))
	}
	if !reflect.DeepEqual(direct.placements, generic.placements) {
		t.Error("placements differ between direct and generic spec builds")
	}
}

// TestFlowExpectedRatesLargeMatchesMaxmin pins the oracle swap: on a large
// model the allocator-based expected-rate computation must agree with the
// map-based maxmin reference within 1e-6 relative, under both schemes'
// unresponsive-flow conventions.
func TestFlowExpectedRatesLargeMatchesMaxmin(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCorelite, SchemeCSFQ} {
		sc := scaleSpecScenario(t, scheme)
		fm, err := buildSpecModelDirect(sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := flowExpectedRatesMaxmin(sc, fm, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := flowExpectedRatesLarge(sc, fm, nil)
		if len(got) != len(want) {
			t.Fatalf("%v: allocator oracle covers %d flows, maxmin %d", scheme, len(got), len(want))
		}
		for idx, w := range want {
			g, ok := got[idx]
			if !ok {
				t.Fatalf("%v: flow %d missing from allocator oracle", scheme, idx)
			}
			if math.Abs(g-w) > 1e-6*math.Max(1, math.Abs(w)) {
				t.Errorf("%v: flow %d expected rate %.9g (allocator) vs %.9g (maxmin)", scheme, idx, g, w)
			}
		}
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
