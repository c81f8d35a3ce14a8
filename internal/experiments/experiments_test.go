package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestScenarioValidation(t *testing.T) {
	tests := []struct {
		name string
		sc   Scenario
	}{
		{"no scheme", Scenario{Duration: time.Second, NumFlows: 1}},
		{"no duration", Scenario{Scheme: SchemeCorelite, NumFlows: 1}},
		{"no flows", Scenario{Scheme: SchemeCorelite, Duration: time.Second}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.sc); err == nil {
				t.Error("Run succeeded, want error")
			}
		})
	}
}

func shortDumbbell(scheme Scheme, seed int64) Scenario {
	return Scenario{
		Name:     "short-dumbbell",
		Scheme:   scheme,
		Duration: 30 * time.Second,
		Seed:     seed,
		NumFlows: 2,
		Weights:  map[int]float64{1: 1, 2: 2},
		Dumbbell: true,
	}
}

func TestRunDumbbellCorelite(t *testing.T) {
	res, err := Run(shortDumbbell(SchemeCorelite, 1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(res.Flows))
	}
	for _, f := range res.Flows {
		if len(f.AllowedRate) != 30 {
			t.Errorf("flow %d has %d allowed-rate samples, want 30", f.Index, len(f.AllowedRate))
		}
		if f.Delivered == 0 {
			t.Errorf("flow %d delivered nothing", f.Index)
		}
	}
	// Expected: 500/3 and 1000/3.
	if e := res.ExpectedFullSet[2]; math.Abs(e-1000.0/3) > 1e-6 {
		t.Errorf("expected[2] = %v, want 333.3", e)
	}
	// After 30s both flows should be in the right neighbourhood.
	f1, f2 := res.Flow(1), res.Flow(2)
	if f1 == nil || f2 == nil {
		t.Fatal("missing flow results")
	}
	r1 := f1.AllowedRate.Final()
	r2 := f2.AllowedRate.Final()
	if r1 < 80 || r1 > 260 {
		t.Errorf("flow 1 final allowed rate = %v, want ~167", r1)
	}
	if r2 < 200 || r2 > 460 {
		t.Errorf("flow 2 final allowed rate = %v, want ~333", r2)
	}
	if j := res.JainIndexAt(29*time.Second, shortDumbbell(SchemeCorelite, 1)); j < 0.9 {
		t.Errorf("Jain index at end = %v, want > 0.9", j)
	}
}

func TestRunDumbbellCSFQ(t *testing.T) {
	res, err := Run(shortDumbbell(SchemeCSFQ, 1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := res.Flow(1).AllowedRate.Final() + res.Flow(2).AllowedRate.Final()
	if total < 350 || total > 650 {
		t.Errorf("aggregate final rate = %v, want ~500", total)
	}
	if res.TotalLosses == 0 {
		t.Error("CSFQ run had no losses; expected loss-driven adaptation")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(shortDumbbell(SchemeCorelite, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shortDumbbell(SchemeCorelite, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
	for i := range a.Flows {
		fa, fb := a.Flows[i], b.Flows[i]
		if fa.Delivered != fb.Delivered || fa.Losses != fb.Losses {
			t.Fatalf("flow %d totals differ", fa.Index)
		}
		for j := range fa.AllowedRate {
			if fa.AllowedRate[j] != fb.AllowedRate[j] {
				t.Fatalf("flow %d allowed-rate sample %d differs", fa.Index, j)
			}
		}
	}
	c, err := Run(shortDumbbell(SchemeCorelite, 8))
	if err != nil {
		t.Fatal(err)
	}
	if c.Events == a.Events {
		t.Log("different seeds produced identical event counts (possible but unlikely)")
	}
}

func TestExpectedRatesAtPhases(t *testing.T) {
	sc := Fig3Scenario(1)
	// Phase 1 (t=100s): flows 1,9,10,11,16 inactive -> 33.33 per unit.
	p1, err := ExpectedRatesAt(sc, 100*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1[5]-100) > 0.01 {
		t.Errorf("phase1 flow5 = %v, want 100", p1[5])
	}
	if _, ok := p1[1]; ok {
		t.Error("phase1 includes inactive flow 1")
	}
	// Phase 2 (t=300s): all 20 -> 25 per unit.
	p2, err := ExpectedRatesAt(sc, 300*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p2[1]-25) > 0.01 {
		t.Errorf("phase2 flow1 = %v, want 25", p2[1])
	}
	if math.Abs(p2[5]-75) > 0.01 {
		t.Errorf("phase2 flow5 = %v, want 75", p2[5])
	}
	// After 750s nothing is active.
	p3, err := ExpectedRatesAt(sc, 770*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(p3) != 0 {
		t.Errorf("phase3 has %d active flows, want 0", len(p3))
	}
}

// TestExpectedRatesAtWhereverRunDoes: ExpectedRatesAt resolves a scenario's
// capacity graph the way Run does, so it answers for generated chains and
// pinned specs too — with Run's own full-set oracle while every flow is
// active, and with the empty map once none is.
func TestExpectedRatesAtWhereverRunDoes(t *testing.T) {
	gen, err := ParseGenerate("fattree:k=4,flows=300", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scenario{
		{Name: "chain", Chain: &ChainTopology{Cores: 40, Flows: 300}},
		{Name: "fattree", Generate: gen},
	} {
		sc.Scheme = SchemeCorelite
		sc.Backend = BackendFlow
		sc.Duration = 10 * time.Second
		sc.Seed = 5
		sc.Schedules = make(map[int]workload.Schedule, 300)
		for i := 1; i <= 300; i++ {
			sc.Schedules[i] = workload.Window(0, 5*time.Second)
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: Run: %v", sc.Name, err)
		}
		got, err := ExpectedRatesAt(sc, 2*time.Second)
		if err != nil {
			t.Fatalf("%s: ExpectedRatesAt: %v", sc.Name, err)
		}
		if len(got) != 300 || !reflect.DeepEqual(got, res.ExpectedFullSet) {
			t.Errorf("%s: ExpectedRatesAt with every flow active differs from Run's ExpectedFullSet (%d vs %d flows)",
				sc.Name, len(got), len(res.ExpectedFullSet))
		}
		idle, err := ExpectedRatesAt(sc, 7*time.Second)
		if err != nil {
			t.Fatalf("%s: ExpectedRatesAt on an idle instant: %v", sc.Name, err)
		}
		if idle == nil || len(idle) != 0 {
			t.Errorf("%s: idle instant returned %v, want the empty map", sc.Name, idle)
		}
	}
}

func TestScheduleOf(t *testing.T) {
	sc := Scenario{Schedules: map[int]workload.Schedule{1: workload.Window(time.Second, 2*time.Second)}}
	if !scheduleOf(sc, 2).ActiveAt(0, time.Minute) {
		t.Error("default schedule should be always-active")
	}
	if scheduleOf(sc, 1).ActiveAt(0, time.Minute) {
		t.Error("explicit schedule ignored")
	}
}

func TestFigureScenarioShapes(t *testing.T) {
	f3 := Fig3Scenario(1)
	if f3.NumFlows != 20 || f3.Duration != 800*time.Second || f3.Scheme != SchemeCorelite {
		t.Errorf("Fig3Scenario misconfigured: %+v", f3)
	}
	if !f3.Schedules[9].ActiveAt(300*time.Second, f3.Duration) {
		t.Error("fig3 flow 9 should be active at 300s")
	}
	if f3.Schedules[9].ActiveAt(100*time.Second, f3.Duration) {
		t.Error("fig3 flow 9 should be inactive at 100s")
	}
	if f3.Schedules[2].ActiveAt(760*time.Second, f3.Duration) {
		t.Error("fig3 flow 2 should stop at 750s")
	}

	f5, f6 := Fig5Scenario(1), Fig6Scenario(1)
	if f5.Scheme != SchemeCorelite || f6.Scheme != SchemeCSFQ {
		t.Error("fig5/6 schemes wrong")
	}
	if f5.NumFlows != 10 || f5.Weights[9] != 5 {
		t.Errorf("fig5 flows/weights wrong: %+v", f5.Weights)
	}

	f9 := Fig9Scenario(1)
	s3 := f9.Schedules[3] // starts at 2s, stops at 62s, restarts at 67s
	if !s3.ActiveAt(10*time.Second, f9.Duration) ||
		s3.ActiveAt(63*time.Second, f9.Duration) ||
		!s3.ActiveAt(70*time.Second, f9.Duration) {
		t.Errorf("fig9 schedule wrong: %+v", s3)
	}
	if got := len(AllFigures(1)); got != 12 {
		t.Errorf("AllFigures returned %d scenarios, want 12 (Figures 3-10 plus the four generated at-scale figures)", got)
	}
	if AllFigures(1)[1].Name != Fig4Scenario(1).Name {
		t.Errorf("AllFigures missing the Figure 4 spec")
	}
}

func TestResultHelpers(t *testing.T) {
	res, err := Run(shortDumbbell(SchemeCorelite, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow(99) != nil {
		t.Error("Flow(99) returned a result")
	}
	if got := res.Flow(1); got == nil || got.Index != 1 {
		t.Error("Flow(1) lookup broken")
	}
	// Jain before any sample exists is 0.
	if j := res.JainIndexAt(-time.Second, shortDumbbell(SchemeCorelite, 3)); j != 0 {
		t.Errorf("JainIndexAt before start = %v, want 0", j)
	}
	if res.Scheme.String() != "corelite" || SchemeCSFQ.String() != "csfq" {
		t.Error("Scheme strings wrong")
	}
	if Scheme(9).String() != "Scheme(9)" {
		t.Error("unknown scheme string wrong")
	}
}

func TestTransportString(t *testing.T) {
	// Transports are plain ints with no Stringer; just pin the values so
	// the public API stays stable.
	if TransportBacklogged != 0 || TransportTCP != 1 {
		t.Error("transport constants changed")
	}
}

func TestParseGenerate(t *testing.T) {
	if g, err := ParseGenerate("", ""); g != nil || err != nil {
		t.Errorf("empty specs: got %+v, %v; want nil, nil", g, err)
	}
	if _, err := ParseGenerate("", "heavytail"); err == nil {
		t.Error("traffic without a generated topology accepted")
	}
	g, err := ParseGenerate("fattree:k=4,flows=8", "")
	if err != nil {
		t.Fatalf("topo-only: %v", err)
	}
	if g == nil || g.Topo.K != 4 || g.Traffic != nil {
		t.Errorf("topo-only generate = %+v", g)
	}
	g, err = ParseGenerate("nclouds:n=3,through=2", "churn:period=10s")
	if err != nil {
		t.Fatalf("topo+traffic: %v", err)
	}
	if g.Topo.Clouds != 3 || g.Traffic == nil || g.Traffic.ChurnPeriod != 10*time.Second {
		t.Errorf("topo+traffic generate = %+v", g)
	}
	if _, err := ParseGenerate("torus:k=4", ""); err == nil {
		t.Error("bad topology spec accepted")
	}
	if _, err := ParseGenerate("mesh:nodes=6", "tsunami:x=1"); err == nil {
		t.Error("bad traffic spec accepted")
	}
}

// TestHugeInputsRefusedUpFront pins the arithmetic pre-flight: a generated
// topology, a chain or a sample grid whose size alone would exhaust memory is
// refused on both backends with an error naming the quantity and its limit.
// (That nothing was allocated first is what lets this test finish at all.) A
// chain is held to the same link and flow limits as a generated topology.
func TestHugeInputsRefusedUpFront(t *testing.T) {
	for _, tc := range []struct {
		topo   string
		sample time.Duration
		want   string
	}{
		{"fattree:k=2000,flows=4", 0, "8000000016 links, over the limit of 75000000"},
		{"fattree:k=8,flows=8", time.Nanosecond, "48000000000 series cells, over the limit of"},
		{"fattree:k=8,flows=2000000000", 0, "2000000000 flows, over the limit of 10000000"},
	} {
		gen, err := ParseGenerate(tc.topo, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []Backend{BackendPacket, BackendFlow} {
			_, err := Run(Scenario{
				Scheme: SchemeCorelite, Duration: 2 * time.Second, Generate: gen,
				SampleWindow: tc.sample, Backend: backend,
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s sample=%v on %v: error %v, want one containing %q", tc.topo, tc.sample, backend, err, tc.want)
			}
		}
	}
	for _, tc := range []struct {
		chain ChainTopology
		want  string
	}{
		{ChainTopology{Cores: 300_000_000, Flows: 1}, "299999999 links, over the limit of 75000000"},
		{ChainTopology{Cores: 10, Flows: 20_000_000}, "20000000 flows, over the limit of 10000000"},
	} {
		chain := tc.chain
		_, err := Run(Scenario{
			Scheme: SchemeCorelite, Duration: time.Second, Chain: &chain, Backend: BackendFlow,
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("chain %+v: error %v, want one containing %q", tc.chain, err, tc.want)
		}
	}
}
