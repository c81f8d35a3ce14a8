package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("drop/overflow")
	if c != nil {
		t.Fatalf("nil registry returned non-nil counter")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter Value = %d, want 0", c.Value())
	}
	g := r.Gauge("queue/x")
	g.Set(3)
	if g.Value() != 0 || g.Name() != "" {
		t.Fatalf("nil gauge not inert")
	}
	if r.GaugeFunc("fn/x", func() float64 { return 1 }) != nil {
		t.Fatalf("nil registry returned non-nil gauge func")
	}
	r.Emit(ControlEvent{Kind: KindEpochStart})
	r.Sample(time.Second)
	r.StartSampler(sim.NewScheduler(), time.Second, time.Minute)
	if r.Enabled() {
		t.Fatalf("nil registry reports Enabled")
	}
	if r.Events() != nil || r.Counters() != nil || r.Gauges() != nil {
		t.Fatalf("nil registry leaked state")
	}
	s := r.Summary()
	if s.Events != 0 || s.Samples != 0 {
		t.Fatalf("nil registry summary not empty: %+v", s)
	}
	var buf strings.Builder
	for _, fn := range []func() error{
		func() error { return r.WriteEventsJSONL(&buf) },
		func() error { return r.WriteSeriesCSV(&buf) },
		func() error { return r.WriteCounters(&buf) },
		func() error { return r.WriteChromeTrace(&buf) },
	} {
		if err := fn(); err != nil {
			t.Fatalf("nil registry exporter error: %v", err)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry exporters wrote %d bytes", buf.Len())
	}
}

func TestCounterAndGaugeIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("drop/overflow")
	b := r.Counter("drop/overflow")
	if a != b {
		t.Fatalf("same name yielded distinct counters")
	}
	a.Inc()
	b.Add(2)
	if a.Value() != 3 {
		t.Fatalf("counter value = %d, want 3", a.Value())
	}
	g := r.Gauge("queue/l")
	g.Set(7.5)
	if got := r.Gauge("queue/l").Value(); got != 7.5 {
		t.Fatalf("gauge value = %v, want 7.5", got)
	}
	backing := 1.0
	gf := r.GaugeFunc("fn/l", func() float64 { return backing })
	backing = 4
	if gf.Value() != 4 {
		t.Fatalf("func gauge did not read through, got %v", gf.Value())
	}
	gf.Set(99) // must be ignored for function-backed gauges
	if gf.Value() != 4 {
		t.Fatalf("Set overrode a function-backed gauge")
	}
	if len(r.Counters()) != 1 || len(r.Gauges()) != 2 {
		t.Fatalf("registry holds %d counters, %d gauges", len(r.Counters()), len(r.Gauges()))
	}
}

func TestSamplerScheduleAndLateGauge(t *testing.T) {
	sched := sim.NewScheduler()
	r := NewRegistry()
	q := 0.0
	r.GaugeFunc("queue/l", func() float64 { return q })
	r.StartSampler(sched, 100*time.Millisecond, 500*time.Millisecond)
	// Model event raising the gauge between samples; also registers a late
	// gauge whose earlier samples must backfill as NaN.
	postAt(sched, 250*time.Millisecond, func() {
		q = 9
		r.GaugeFunc("fn/l", func() float64 { return 2.5 })
	})
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	ts := r.SampleTimes()
	if len(ts) != 5 {
		t.Fatalf("got %d samples, want 5: %v", len(ts), ts)
	}
	if ts[0] != 100*time.Millisecond || ts[4] != 500*time.Millisecond {
		t.Fatalf("sample instants %v", ts)
	}
	qs := r.Series("queue/l")
	if qs[1] != 0 || qs[2] != 9 {
		t.Fatalf("queue series %v", qs)
	}
	fn := r.Series("fn/l")
	if fn[1] == fn[1] { // NaN != NaN
		t.Fatalf("late gauge sample[1] = %v, want NaN", fn[1])
	}
	if fn[2] != 2.5 {
		t.Fatalf("late gauge sample[2] = %v, want 2.5", fn[2])
	}
	if r.Series("missing") != nil {
		t.Fatalf("unknown series not nil")
	}
}

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter("drop/overflow").Add(3)
	r.Counter("core/C1/congestion-epochs").Add(2)
	r.Counter("core/C1/feedback-sent").Add(7)
	q := r.Gauge("queue/C1->S")
	f := r.Gauge("fn/C1->S")
	r.Emit(ControlEvent{At: 100 * time.Millisecond, Kind: KindEpochStart, Node: "C1", Link: "C1->S", QAvg: 9.5, Fn: 3.25})
	r.Emit(ControlEvent{At: 120 * time.Millisecond, Kind: KindMarkerSelected, Node: "C1", Link: "C1->S", Flow: "E1/0", New: 2})
	r.Emit(ControlEvent{At: 150 * time.Millisecond, Kind: KindPhaseChange, Node: "E1", Flow: "E1/0", Old: 64, New: 32, Detail: "slow-start->linear"})
	r.Emit(ControlEvent{At: 200 * time.Millisecond, Kind: KindEpochEnd, Node: "C1", Link: "C1->S", QAvg: 4})
	r.Emit(ControlEvent{At: 250 * time.Millisecond, Kind: KindAlphaUpdate, Node: "K1", Link: "K1->S", Old: 80, New: 72.5, Detail: "congested"})
	r.Emit(ControlEvent{At: 300 * time.Millisecond, Kind: KindEpochStart, Node: "C1", Link: "C1->S", QAvg: 8.125, Fn: 1.5})
	q.Set(4)
	f.Set(0)
	r.Sample(100 * time.Millisecond)
	q.Set(12)
	f.Set(3.25)
	r.Sample(200 * time.Millisecond)
	// Late-registered gauge: first two samples must render empty.
	r.Gauge("alpha/K1->S").Set(72.5)
	q.Set(6)
	r.Sample(300 * time.Millisecond)
	h := r.Histogram("wait/C1->S", "s")
	h.Observe(0.001)
	h.Observe(0.004)
	h.Observe(0.016)
	r.RecordPerf([]PerfStat{
		{Kind: "link-tx", Events: 1200, WallSeconds: 0.25, Sampled: 20},
		{Kind: "control", Events: 40, WallSeconds: 0.01, Sampled: 1},
	})
	return r
}

func TestSummary(t *testing.T) {
	s := testRegistry().Summary()
	if s.Events != 6 {
		t.Fatalf("Events = %d, want 6", s.Events)
	}
	if s.ByKind["epoch-start"] != 2 || s.ByKind["phase-change"] != 1 {
		t.Fatalf("ByKind = %v", s.ByKind)
	}
	if s.Samples != 3 {
		t.Fatalf("Samples = %d, want 3", s.Samples)
	}
	if s.PeakQueue != 12 {
		t.Fatalf("PeakQueue = %v, want 12", s.PeakQueue)
	}
	if s.CongestionEpochs != 2 || s.FeedbackSent != 7 || s.Drops != 3 {
		t.Fatalf("summary counters: %+v", s)
	}
	want := []string{"alpha-update", "epoch-end", "epoch-start", "marker-selected", "phase-change"}
	got := s.KindNames()
	if len(got) != len(want) {
		t.Fatalf("KindNames = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KindNames = %v, want %v", got, want)
		}
	}
}

func TestWriteEventsJSONL(t *testing.T) {
	var buf strings.Builder
	if err := testRegistry().WriteEventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), buf.String())
	}
	want0 := `{"t":0.100000,"kind":"epoch-start","node":"C1","link":"C1->S","qavg":9.5,"fn":3.25}`
	if lines[0] != want0 {
		t.Fatalf("line 0:\n got %s\nwant %s", lines[0], want0)
	}
	want2 := `{"t":0.150000,"kind":"phase-change","node":"E1","flow":"E1/0","old":64,"new":32,"detail":"slow-start->linear"}`
	if lines[2] != want2 {
		t.Fatalf("line 2:\n got %s\nwant %s", lines[2], want2)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf strings.Builder
	if err := testRegistry().WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	want := []string{
		"time_s,queue/C1->S,fn/C1->S,alpha/K1->S",
		"0.100,4.000,0.000,",
		"0.200,12.000,3.250,",
		"0.300,6.000,3.250,72.500",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}

func TestWriteCounters(t *testing.T) {
	var buf strings.Builder
	if err := testRegistry().WriteCounters(&buf); err != nil {
		t.Fatal(err)
	}
	want := "counter,value\ndrop/overflow,3\ncore/C1/congestion-epochs,2\ncore/C1/feedback-sent,7\n"
	if buf.String() != want {
		t.Fatalf("counters CSV:\n got %q\nwant %q", buf.String(), want)
	}
}

// postAt runs fn at time t on s, through a handler registered for it.
func postAt(s *sim.Scheduler, t time.Duration, fn func()) {
	s.PostHandlerAt(t, s.RegisterHandler(func(uint32) { fn() }), 0)
}
