package flowsim

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

func singleLink(t *testing.T, capacity float64, weights ...float64) *Model {
	t.Helper()
	m := NewModel()
	li, err := m.AddLink("L", capacity)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range weights {
		if err := m.AddFlow(Flow{Index: i + 1, Weight: w, Links: []int{li}}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestConvergesToWeightedShares pins the engine's core property: under both
// control laws, persistent flows on one bottleneck settle at the weighted
// fair shares.
func TestConvergesToWeightedShares(t *testing.T) {
	for _, ctl := range []Control{ControlMarker, ControlLoss} {
		m := singleLink(t, 500, 1, 2, 3)
		out, err := Run(Config{Model: m, Horizon: 120 * time.Second, Control: ctl})
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{500.0 / 6, 1000.0 / 6, 1500.0 / 6}
		for i, fo := range out.Flows {
			// Mean achieved rate over the last 30 windows.
			n := len(fo.Rate)
			sum := 0.0
			for _, s := range fo.Rate[n-30:] {
				sum += s.Value
			}
			got := sum / 30
			if d := math.Abs(got-want[i]) / want[i]; d > 0.10 {
				t.Errorf("%v flow %d: settled at %.1f, want %.1f (Δ %.1f%%)",
					ctl, i+1, got, want[i], 100*d)
			}
		}
	}
}

// TestEventOrderingTie pins the same-timestamp event contract: departures
// free capacity first, then arrivals join, then the control epoch sees the
// new membership — so a flow arriving exactly on an epoch boundary is
// subject to that epoch's control rather than escaping it for a period, and
// a swap (departure + arrival at the same instant) never double-counts the
// link.
func TestEventOrderingTie(t *testing.T) {
	m := singleLink(t, 100, 1, 1)
	// Flow 1 runs [0, 10s); flow 2 arrives exactly at 10s — which is also
	// an epoch boundary and a flush boundary.
	scheds := []workload.Schedule{
		{{Start: 0, Stop: 10 * time.Second}},
		{{Start: 10 * time.Second}},
	}
	out, err := Run(Config{
		Model:     m,
		Horizon:   20 * time.Second,
		Control:   ControlMarker,
		Schedules: scheds,
		OnViolation: func(v Violation) {
			t.Errorf("violation: %+v", v)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flow 1 must have stopped accumulating at exactly 10s; flow 2 starts
	// from the initial rate at 10s (slow start), so its 11s window mean is
	// small, not a full share.
	f1, f2 := out.Flows[0], out.Flows[1]
	if f1.Cumulative[9].Value != f1.Cumulative[19].Value {
		t.Errorf("flow 1 delivered after departure: %v then %v",
			f1.Cumulative[9].Value, f1.Cumulative[19].Value)
	}
	if got := f2.Rate[10].Value; got > 5 {
		t.Errorf("flow 2's first window rate %v; want slow-start scale, not a full share", got)
	}
	if got := f2.Rate[9].Value; got != 0 {
		t.Errorf("flow 2 delivered %v before its arrival", got)
	}
	// The freed link is eventually re-used: flow 2 climbs toward 100.
	if got := f2.Allowed[19].Value; got < 30 {
		t.Errorf("flow 2 allowed rate %v at 20s; want recovery toward capacity", got)
	}

	// Three flows meeting at one timestamp that is also an epoch and a flush
	// boundary: flow 1 departs, flow 2 arrives, flow 3 departs and re-arrives.
	// The event list must hold that instant as departures, arrivals, epoch,
	// flush — and, within a priority, in order of creation.
	tie := 10 * time.Second
	e, err := newEngine(Config{
		Model:   singleLink(t, 100, 1, 1, 1),
		Horizon: 20 * time.Second,
		Control: ControlMarker,
		Schedules: []workload.Schedule{
			{{Start: 0, Stop: tie}},
			{{Start: tie}},
			{{Start: 0, Stop: tie}, {Start: tie}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.schedule()
	type key struct {
		prio int8
		flow int32
	}
	var got []key
	for _, ev := range e.events {
		if ev.at == tie {
			got = append(got, key{ev.prio, ev.flow})
		}
	}
	want := []key{
		{prioDeparture, 0}, {prioDeparture, 2},
		{prioArrival, 1}, {prioArrival, 2},
		{prioEpoch, 0}, {prioFlush, 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events at %v ordered (prio, flow) %v, want %v", tie, got, want)
	}
}

// TestScheduleSortsOnce pins the event list's life cycle: schedule() leaves
// e.events at its final length and sorted under eventCmp, and run() only
// ever consumes it from the front — the slice shrinks by one event per step
// and stays a suffix of the list schedule() built.
func TestScheduleSortsOnce(t *testing.T) {
	horizon := 30 * time.Second
	e, err := newEngine(Config{
		Model:   singleLink(t, 500, 1, 2, 3, 4),
		Horizon: horizon,
		Control: ControlLoss,
		Schedules: []workload.Schedule{
			workload.Always(),
			{{Start: 3 * time.Second, Stop: 20 * time.Second}, {Start: 25 * time.Second}},
			nil,
			{{Start: 7 * time.Second}, {Start: 40 * time.Second}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.schedule()
	all := e.events
	// 5 arrivals and 1 departure inside the horizon, 300 epochs, 30 flushes.
	if want := 6 + 300 + 30; len(all) != want {
		t.Fatalf("schedule() built %d events, want %d", len(all), want)
	}
	if !slices.IsSortedFunc(all, eventCmp) {
		t.Fatal("schedule() left e.events unsorted under eventCmp")
	}
	for k := 1; len(e.events) > 0; k++ {
		e.step()
		if len(e.events) != len(all)-k {
			t.Fatalf("after %d steps %d events remain of %d: run must only consume", k, len(e.events), len(all))
		}
		if len(e.events) > 0 && &e.events[0] != &all[k] {
			t.Fatalf("after %d steps e.events is no longer a suffix of the scheduled list", k)
		}
	}
	if e.out.Events != uint64(len(all)) {
		t.Errorf("processed %d events, scheduled %d", e.out.Events, len(all))
	}
}

// TestDeterminism: identical configs produce identical outputs.
func TestDeterminism(t *testing.T) {
	run := func() *Output {
		m := singleLink(t, 500, 1, 2, 3, 4)
		scheds := []workload.Schedule{
			workload.Always(),
			{{Start: 3 * time.Second, Stop: 40 * time.Second}, {Start: 45 * time.Second}},
			workload.Always(),
			{{Start: 7 * time.Second}},
		}
		out, err := Run(Config{
			Model: m, Horizon: 60 * time.Second,
			Control: ControlLoss, Schedules: scheds,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical runs diverged")
	}
}

// TestRestartSurvivesCongestion pins the indication-quantization behaviour:
// a flow restarting into a saturated link must climb back to its share
// rather than being halved out of slow start by an infinitesimal feedback
// share (the fluid artifact that a packet system's marker discreteness
// never exhibits).
func TestRestartSurvivesCongestion(t *testing.T) {
	for _, ctl := range []Control{ControlMarker, ControlLoss} {
		m := singleLink(t, 300, 1, 1, 1)
		scheds := []workload.Schedule{
			workload.Always(),
			workload.Always(),
			{{Start: 0, Stop: 40 * time.Second}, {Start: 45 * time.Second}},
		}
		out, err := Run(Config{Model: m, Horizon: 120 * time.Second, Control: ctl, Schedules: scheds})
		if err != nil {
			t.Fatal(err)
		}
		f3 := out.Flows[2]
		got := f3.Rate[len(f3.Rate)-1].Value
		if got < 70 {
			t.Errorf("%v: restarted flow settled at %.1f, want ≈100", ctl, got)
		}
	}
}

// TestLossAccounting: under ControlLoss the lost volume is the offered
// excess; under ControlMarker nothing is ever dropped.
func TestLossAccounting(t *testing.T) {
	m := singleLink(t, 100, 1, 1)
	out, err := Run(Config{Model: m, Horizon: 60 * time.Second, Control: ControlMarker})
	if err != nil {
		t.Fatal(err)
	}
	for i, fo := range out.Flows {
		if fo.Lost != 0 {
			t.Errorf("marker control: flow %d lost %v", i+1, fo.Lost)
		}
	}
	out, err = Run(Config{Model: m, Horizon: 60 * time.Second, Control: ControlLoss})
	if err != nil {
		t.Fatal(err)
	}
	var lost float64
	for _, fo := range out.Flows {
		lost += fo.Lost
	}
	if lost <= 0 {
		t.Error("loss control: saturated link recorded zero losses")
	}
}

// TestConfigValidation covers the Run entry errors.
func TestConfigValidation(t *testing.T) {
	m := singleLink(t, 100, 1)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil model", Config{Horizon: time.Second, Control: ControlMarker}},
		{"no horizon", Config{Model: m, Control: ControlMarker}},
		{"bad control", Config{Model: m, Horizon: time.Second, Control: Control(9)}},
		{"schedule mismatch", Config{Model: m, Horizon: time.Second, Control: ControlMarker,
			Schedules: make([]workload.Schedule, 3)}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestModelValidation covers the model construction errors.
func TestModelValidation(t *testing.T) {
	m := NewModel()
	li, err := m.AddLink("L", 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddLink("L", 20); err == nil {
		t.Error("capacity-mismatched duplicate link accepted")
	}
	if got, err := m.AddLink("L", 10); err != nil || got != li {
		t.Errorf("idempotent re-add: got (%d, %v), want (%d, nil)", got, err, li)
	}
	if err := m.AddFlow(Flow{Index: 1, Weight: 0, Links: []int{li}}); err == nil {
		t.Error("zero-weight flow accepted")
	}
	if err := m.AddFlow(Flow{Index: 1, Weight: 1, Links: []int{5}}); err == nil {
		t.Error("unknown link accepted")
	}
	if err := m.AddFlow(Flow{Index: 1, Weight: 1, Links: []int{li}}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddFlow(Flow{Index: 1, Weight: 1, Links: []int{li}}); err == nil {
		t.Error("duplicate flow index accepted")
	}
}

// TestAddLinkIndexesDirectLinks: a model whose Links a builder filled
// directly carries no name index; AddLink builds it on first use, so a name
// already present still resolves to its link.
func TestAddLinkIndexesDirectLinks(t *testing.T) {
	m := &Model{Links: []Link{{Name: "A", Capacity: 5}, {Name: "B", Capacity: 7}}}
	if got, err := m.AddLink("B", 7); err != nil || got != 1 {
		t.Errorf("AddLink(B) = (%d, %v), want (1, nil)", got, err)
	}
	if got, err := m.AddLink("C", 9); err != nil || got != 2 {
		t.Errorf("AddLink(C) = (%d, %v), want (2, nil)", got, err)
	}
	if _, err := m.AddLink("A", 6); err == nil {
		t.Error("capacity-mismatched re-add of a directly filled link accepted")
	}
}

// TestSeriesSlabIsolation: the measurement series share one slab, so each
// must be capped at its own cells — an append by the caller reallocates
// rather than writing into the next flow's first sample.
func TestSeriesSlabIsolation(t *testing.T) {
	m := singleLink(t, 100, 1, 1)
	out, err := Run(Config{Model: m, Horizon: 5 * time.Second, Control: ControlMarker})
	if err != nil {
		t.Fatal(err)
	}
	for i, fo := range out.Flows {
		for name, s := range map[string]metrics.Series{"Allowed": fo.Allowed, "Rate": fo.Rate, "Cumulative": fo.Cumulative} {
			if len(s) != 5 || cap(s) != 5 {
				t.Errorf("flow %d %s: len %d cap %d, want 5 and 5", i, name, len(s), cap(s))
			}
		}
	}
	next := out.Flows[1].Allowed[0]
	_ = append(out.Flows[0].Allowed, metrics.Sample{At: time.Hour, Value: -1})
	if out.Flows[1].Allowed[0] != next {
		t.Errorf("appending to flow 0's series overwrote flow 1's first sample: %v", out.Flows[1].Allowed[0])
	}
}
