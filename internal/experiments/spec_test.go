package experiments

import (
	"maps"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/topospec"
	"repro/internal/workload"
)

// TestCustomSpecScenario runs Corelite end to end on a user-defined
// Y-shaped cloud loaded from the text format.
func TestCustomSpecScenario(t *testing.T) {
	const y = `
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
flow 1 in1 out1 weight=1
flow 2 in2 out2 weight=3
`
	spec, err := topospec.Parse(strings.NewReader(y))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sc := Scenario{
		Name:     "custom-y",
		Scheme:   SchemeCorelite,
		Duration: 120 * time.Second,
		Seed:     1,
		Spec:     spec,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(res.Flows))
	}
	// Trunk C->D (500 pkt/s) split 1:3.
	if res.ExpectedFullSet[1] != 125 || res.ExpectedFullSet[2] != 375 {
		t.Fatalf("oracle = %v, want 125/375", res.ExpectedFullSet)
	}
	r1 := res.Flow(1).AllowedRate.MeanOver(90*time.Second, 120*time.Second)
	r2 := res.Flow(2).AllowedRate.MeanOver(90*time.Second, 120*time.Second)
	if r1 < 85 || r1 > 170 {
		t.Errorf("flow 1 mean rate = %v, want ~125", r1)
	}
	if r2 < 290 || r2 > 450 {
		t.Errorf("flow 2 mean rate = %v, want ~375", r2)
	}
	// Weights must have come from the spec.
	if res.Flow(2).Weight != 3 {
		t.Errorf("flow 2 weight = %v, want 3 (from spec)", res.Flow(2).Weight)
	}
}

// TestCustomSpecWithContractAndCSFQ covers spec-driven contracts and the
// CSFQ scheme on a custom cloud.
func TestCustomSpecWithContractAndCSFQ(t *testing.T) {
	const two = `
node A core
node B core
duplex A B 4Mbps 10ms
node in1 edge
node in2 edge
node out1 edge
node out2 edge
duplex in1 A 40Mbps 1ms
duplex in2 A 40Mbps 1ms
duplex B out1 40Mbps 1ms
duplex B out2 40Mbps 1ms
flow 1 in1 out1 weight=1 min=200
flow 2 in2 out2 weight=1
`
	spec, err := topospec.Parse(strings.NewReader(two))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sc := Scenario{
		Name:     "custom-contract",
		Scheme:   SchemeCorelite,
		Duration: 60 * time.Second,
		Seed:     1,
		Spec:     spec,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Contract 200 + half the 300 excess = 350 vs 150.
	if res.ExpectedFullSet[1] != 350 || res.ExpectedFullSet[2] != 150 {
		t.Fatalf("oracle = %v, want 350/150", res.ExpectedFullSet)
	}
	for _, s := range res.Flow(1).AllowedRate {
		if s.Value > 0 && s.Value < 200 {
			t.Fatalf("spec contract violated: %v at %v", s.Value, s.At)
		}
	}

	// The same spec under CSFQ must reject the contract...
	csfqSc := sc
	csfqSc.Scheme = SchemeCSFQ
	if _, err := Run(csfqSc); err == nil {
		t.Fatal("spec contract under CSFQ accepted")
	}
	// ...but run fine without it.
	specNoMin, err := topospec.Parse(strings.NewReader(strings.ReplaceAll(two, " min=200", "")))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	csfqSc.Spec = specNoMin
	if _, err := Run(csfqSc); err != nil {
		t.Fatalf("CSFQ on custom spec: %v", err)
	}
}

// TestGeneratedWorkloadOverlay: a generated scenario's explicit Schedules
// and Unresponsive entries override the generated workload's entry for the
// same flow and add to the rest, and normalizing leaves the caller's maps
// as they were.
func TestGeneratedWorkloadOverlay(t *testing.T) {
	gen, err := ParseGenerate("fattree:k=4,flows=40", "heavytail:unresp=0.2,urate=300")
	if err != nil {
		t.Fatal(err)
	}
	raw := Scenario{Scheme: SchemeCorelite, Backend: BackendFlow, Duration: time.Minute, Seed: 2, Generate: gen}
	plain, err := raw.normalize()
	if err != nil {
		t.Fatal(err)
	}
	blaster, quiet := 0, 0
	for idx := 1; idx <= 40; idx++ {
		if _, ok := plain.Unresponsive[idx]; ok && blaster == 0 {
			blaster = idx
		} else if !ok && quiet == 0 {
			quiet = idx
		}
	}
	if blaster == 0 || quiet == 0 {
		t.Fatalf("want a generated blaster and a responsive flow, got unresponsive %v", plain.Unresponsive)
	}
	window := workload.Window(time.Second, 2*time.Second)
	raw.Unresponsive = map[int]float64{blaster: 123, quiet: 77}
	raw.Schedules = map[int]workload.Schedule{quiet: window}
	got, err := raw.normalize()
	if err != nil {
		t.Fatal(err)
	}
	wantUnresp := maps.Clone(plain.Unresponsive)
	wantUnresp[blaster], wantUnresp[quiet] = 123, 77
	if !maps.Equal(got.Unresponsive, wantUnresp) {
		t.Errorf("Unresponsive = %v, want %v", got.Unresponsive, wantUnresp)
	}
	wantSched := maps.Clone(plain.Schedules)
	if wantSched == nil {
		wantSched = map[int]workload.Schedule{}
	}
	wantSched[quiet] = window
	if !reflect.DeepEqual(got.Schedules, wantSched) {
		t.Errorf("Schedules: got %d entries, want %d, flow %d's = %v", len(got.Schedules), len(wantSched), quiet, got.Schedules[quiet])
	}
	if len(raw.Unresponsive) != 2 || len(raw.Schedules) != 1 {
		t.Errorf("normalize changed the caller's maps: %v, %v", raw.Unresponsive, raw.Schedules)
	}
}
