package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestMM1CubicDetector(t *testing.T) {
	// The paper's evaluation link: 500 pkt/s at 100ms epochs.
	d := &mm1CubicDetector{mu: 50, qthresh: 8, k: 0.003, beta: 1}
	if got := d.endEpoch(0, 5); got != 0 {
		t.Errorf("Fn below threshold = %v, want 0", got)
	}
	if got := d.endEpoch(0, 8); got != 0 {
		t.Errorf("Fn at threshold = %v, want 0", got)
	}
	// q_avg = 17, q_thresh = 8: term1 = 50*(17/18 - 8/9) = 2.7778;
	// term2 = k * 9^3 with k = 0.003.
	got := d.endEpoch(0, 17)
	want := 50*(17.0/18-8.0/9) + 0.003*729
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Fn(17) = %v, want %v", got, want)
	}
	// Monotone in q_avg.
	prev := 0.0
	for q := 9.0; q <= 40; q++ {
		fn := d.endEpoch(0, q)
		if fn <= prev {
			t.Fatalf("Fn not increasing at q_avg=%v: %v <= %v", q, fn, prev)
		}
		prev = fn
	}
}

func TestMM1CubicDetectorKZeroAblation(t *testing.T) {
	d := &mm1CubicDetector{mu: 50, qthresh: 8, k: 0, beta: 1}
	// Without the cubic term, Fn saturates at mu*(1 - qt/(1+qt)).
	bound := 50 * (1 - 8.0/9)
	for q := 9.0; q <= 200; q += 10 {
		if fn := d.endEpoch(0, q); fn > bound {
			t.Fatalf("k=0 Fn(%v) = %v exceeds M/M/1 bound %v", q, fn, bound)
		}
	}
}

func TestLinearDetector(t *testing.T) {
	d := &linearDetector{thresh: 8, gain: 2, beta: 1}
	if got := d.endEpoch(0, 8); got != 0 {
		t.Errorf("Fn at threshold = %v, want 0", got)
	}
	if got := d.endEpoch(0, 13); got != 10 {
		t.Errorf("Fn(13) = %v, want 10 (gain 2 x excess 5)", got)
	}
	// Beta rescales.
	d.beta = 2
	if got := d.endEpoch(0, 13); got != 5 {
		t.Errorf("Fn(13) with beta 2 = %v, want 5", got)
	}
}

func TestEWMADetector(t *testing.T) {
	d := &ewmaDetector{minThresh: 8, maxThresh: 24, weight: 0.5, maxFn: 50, beta: 1}
	if got := d.endEpoch(0, 0); got != 0 {
		t.Errorf("idle Fn = %v, want 0", got)
	}
	// Sustained q_avg = 40 drives the EWMA above max -> full feedback.
	var got float64
	for i := 0; i < 20; i++ {
		got = d.endEpoch(0, 40)
	}
	if got != 50 {
		t.Errorf("saturated Fn = %v, want maxFn 50", got)
	}
	// Smoothing: a single spike from idle produces partial feedback.
	d2 := &ewmaDetector{minThresh: 8, maxThresh: 24, weight: 0.5, maxFn: 50, beta: 1}
	first := d2.endEpoch(0, 40) // ewma = 20 -> frac = 12/16
	if first <= 0 || first >= 50 {
		t.Errorf("first spike Fn = %v, want partial (0, 50)", first)
	}
}

func TestDetectorSelection(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	if _, err := net.AddNode("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddNode("B"); err != nil {
		t.Fatal(err)
	}
	l, err := net.AddLink("A", "B", netem.LinkConfig{RateBps: 4e6, Delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for kind, wantType := range map[DetectorKind]string{
		DetectorMM1Cubic: "*core.mm1CubicDetector",
		DetectorLinear:   "*core.linearDetector",
		DetectorEWMA:     "*core.ewmaDetector",
	} {
		cfg := DefaultRouterConfig()
		cfg.Detector = kind
		d := newDetector(cfg, l)
		if got := fmt.Sprintf("%T", d); got != wantType {
			t.Errorf("newDetector(%v) = %s, want %s", kind, got, wantType)
		}
	}
	// A negative k is the no-cubic-term ablation.
	off := normalizeRouterConfig(RouterConfig{CorrectionK: -1})
	if d := newDetector(off, l).(*mm1CubicDetector); d.k != 0 {
		t.Errorf("k=-1 gives the detector k=%v, want 0", d.k)
	}
}

func TestEdgeMarkerSpacing(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	if _, err := net.AddNode("E"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddNode("D"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddLink("E", "D", netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	var markers, data int
	var lastLabel float64
	sink := &captureApp{fn: func(p *packet.Packet) {
		data++
		if p.Marker != nil {
			markers++
			lastLabel = p.Marker.Rate
		}
	}}
	net.Node("D").SetApp(sink)

	edge := NewEdge(net, net.Node("E"), DefaultEdgeConfig())
	local, err := edge.AddFlow("D", 3) // weight 3 -> marker every 3rd packet
	if err != nil {
		t.Fatalf("AddFlow: %v", err)
	}
	cfg := adapt.DefaultConfig()
	cfg.InitialRate = 30
	// Rebuild with explicit initial rate so the label is predictable.
	edge = NewEdge(net, net.Node("E"), EdgeConfig{Adapt: cfg})
	local, err = edge.AddFlow("D", 3)
	if err != nil {
		t.Fatalf("AddFlow: %v", err)
	}
	if err := edge.StartFlow(local); err != nil {
		t.Fatalf("StartFlow: %v", err)
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if data == 0 {
		t.Fatal("no packets delivered")
	}
	wantMarkers := data / 3
	if markers < wantMarkers-1 || markers > wantMarkers+1 {
		t.Errorf("markers = %d over %d data packets, want ~every 3rd (%d)", markers, data, wantMarkers)
	}
	if lastLabel != 10 { // b_g/w = 30/3
		t.Errorf("marker label = %v, want 10 (normalized rate)", lastLabel)
	}
}

type captureApp struct{ fn func(*packet.Packet) }

func (c *captureApp) Receive(p *packet.Packet) { c.fn(p) }

func TestEdgeFlowLifecycle(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	for _, n := range []string{"E", "D"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink("E", "D", netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	edge := NewEdge(net, net.Node("E"), DefaultEdgeConfig())
	if _, err := edge.AddFlow("D", 0); err == nil {
		t.Error("AddFlow with weight 0 accepted")
	}
	local, err := edge.AddFlow("D", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rate, _ := edge.AllowedRate(local); rate != 0 {
		t.Errorf("rate before start = %v, want 0", rate)
	}
	if err := edge.StartFlow(local); err != nil {
		t.Fatal(err)
	}
	if rate, _ := edge.AllowedRate(local); rate != 1 {
		t.Errorf("rate after start = %v, want initial 1", rate)
	}
	id, err := edge.FlowID(local)
	if err != nil || id.Edge != "E" || id.Local != local {
		t.Errorf("FlowID = %v, %v", id, err)
	}
	if f, _ := edge.Flow(local); f.Weight != 2 {
		t.Errorf("Weight = %v, want 2", f.Weight)
	}
	if err := edge.StopFlow(local); err != nil {
		t.Fatal(err)
	}
	if rate, _ := edge.AllowedRate(local); rate != 0 {
		t.Errorf("rate after stop = %v, want 0", rate)
	}
	// Errors for unknown locals.
	if err := edge.StartFlow(99); err == nil {
		t.Error("StartFlow(99) succeeded")
	}
	if err := edge.StopFlow(-1); err == nil {
		t.Error("StopFlow(-1) succeeded")
	}
	if _, err := edge.AllowedRate(99); err == nil {
		t.Error("AllowedRate(99) succeeded")
	}
}

func TestEdgeGrowsWhenNoFeedback(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	for _, n := range []string{"E", "D"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink("E", "D", netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	edge := NewEdge(net, net.Node("E"), DefaultEdgeConfig())
	local, err := edge.AddFlow("D", 1)
	if err != nil {
		t.Fatal(err)
	}
	edge.Start()
	defer edge.Stop()
	if err := edge.StartFlow(local); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rate, _ := edge.AllowedRate(local)
	// Slow start reaches 32 at ~6s, then linear +1/epoch (10/s): by t=10s
	// the rate should be around 32 + ~40.
	if rate < 50 || rate > 90 {
		t.Errorf("uncongested rate after 10s = %v, want ~70", rate)
	}
}

func TestEdgeFeedbackThrottles(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	for _, n := range []string{"E", "D"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink("E", "D", netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	edge := NewEdge(net, net.Node("E"), DefaultEdgeConfig())
	local, err := edge.AddFlow("D", 1)
	if err != nil {
		t.Fatal(err)
	}
	edge.Start()
	defer edge.Stop()
	if err := edge.StartFlow(local); err != nil {
		t.Fatal(err)
	}
	// Reach linear phase, then deliver feedback: 5 markers from C1, 3
	// from C2 in one epoch -> m = max = 5.
	if err := s.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	before, _ := edge.AllowedRate(local)
	const c1c2, c2c3 = 1, 2 // two core links' ids
	for i := 0; i < 5; i++ {
		edge.HandleFeedback(local, c1c2)
	}
	for i := 0; i < 3; i++ {
		edge.HandleFeedback(local, c2c3)
	}
	if err := s.Run(s.Now() + 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	after, _ := edge.AllowedRate(local)
	if want := before - 5; after != want {
		t.Errorf("rate after feedback = %v, want %v (max per core, not sum)", after, want)
	}
}

// TestDumbbellWeightedConvergence is the core integration test: two flows
// with weights 1 and 2 share one bottleneck; Corelite must allocate the
// 500 pkt/s link roughly 167/333 with no packet loss (paper §4.2 reports
// loss-free operation).
func TestDumbbellWeightedConvergence(t *testing.T) {
	s := sim.NewScheduler()
	weights := map[int]float64{1: 1, 2: 2}
	cloud, err := topology.Dumbbell(s, 2, weights, topology.Options{})
	if err != nil {
		t.Fatalf("Dumbbell: %v", err)
	}
	net := cloud.Net

	rec := metrics.NewFlowRecorder(time.Second)
	drops := 0
	net.OnDrop(func(d netem.Drop) { drops++ })

	edges := make(map[string]*Edge, len(cloud.Placements))
	locals := make(map[int]int, len(cloud.Placements))
	flowEdges := make(map[int]*Edge, len(cloud.Placements))
	for _, pl := range cloud.Placements {
		e := NewEdge(net, net.Node(pl.Ingress), DefaultEdgeConfig())
		local, err := e.AddFlow(pl.Egress, pl.Weight)
		if err != nil {
			t.Fatalf("AddFlow: %v", err)
		}
		edges[pl.Ingress] = e
		locals[pl.Index] = local
		flowEdges[pl.Index] = e
		net.Node(pl.Egress).SetApp(&captureApp{fn: func(p *packet.Packet) {
			rec.Deliver(p.Flow, s.Now())
		}})
		e.Start()
	}

	onErr := func(err error) { t.Errorf("SendControl: %v", err) }
	rng := sim.NewRNG(42)
	for _, name := range []string{"A", "B"} {
		fb := ControlFeedback(net, net.Node(name), edges, onErr)
		r := NewRouter(net, net.Node(name), DefaultRouterConfig(), rng.Stream(name), fb)
		r.Start()
		defer r.ticker.Stop()
	}

	for _, pl := range cloud.Placements {
		if err := flowEdges[pl.Index].StartFlow(locals[pl.Index]); err != nil {
			t.Fatalf("StartFlow: %v", err)
		}
	}
	if err := s.Run(60 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}

	r1, _ := flowEdges[1].AllowedRate(locals[1])
	r2, _ := flowEdges[2].AllowedRate(locals[2])
	// Expected: ~167 and ~333 pkt/s. Accept generous bands; the point is
	// the 1:2 split and full utilization.
	if r1 < 110 || r1 > 230 {
		t.Errorf("flow 1 (weight 1) allowed rate = %v, want ~167", r1)
	}
	if r2 < 240 || r2 > 430 {
		t.Errorf("flow 2 (weight 2) allowed rate = %v, want ~333", r2)
	}
	total := r1 + r2
	if total < 420 || total > 560 {
		t.Errorf("aggregate allowed rate = %v, want ~500 (full utilization)", total)
	}
	ratio := (r2 / 2) / r1
	if ratio < 0.75 || ratio > 1.35 {
		t.Errorf("normalized ratio = %.2f, want ~1 (weighted fairness)", ratio)
	}
	if drops != 0 {
		t.Errorf("observed %d drops; Corelite should be loss-free here", drops)
	}
	id1, _ := flowEdges[1].FlowID(locals[1])
	if rec.Total(id1) == 0 {
		t.Error("flow 1 delivered nothing")
	}
}
