package csfq

import (
	"math"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestEwmaRateConverges(t *testing.T) {
	// Packets arriving every 10 ms should converge to ~100 pkt/s.
	k := 100 * time.Millisecond
	est := 0.0
	last := time.Duration(0)
	has := false
	now := time.Duration(0)
	for i := 0; i < 500; i++ {
		est = ewmaRate(est, last, now, k, has)
		last = now
		has = true
		now += 10 * time.Millisecond
	}
	if math.Abs(est-100) > 5 {
		t.Errorf("ewma estimate = %v, want ~100", est)
	}
}

func TestEdgeLabelsNormalizedRate(t *testing.T) {
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
	var labels []float64
	net.Node("D").SetApp(appFunc(func(p *packet.Packet) { labels = append(labels, p.Label) }))

	cfg := DefaultEdgeConfig()
	cfg.Adapt.InitialRate = 100 // steady emission at 100 pkt/s
	cfg.Adapt.SSThresh = 1      // avoid doubling during the test
	edge := NewEdge(net, net.Node("E"), cfg)
	local, err := edge.AddFlow("D", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := edge.StartFlow(local); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(labels) < 100 {
		t.Fatalf("only %d packets delivered", len(labels))
	}
	// After the estimator warms up, labels should approach 100/4 = 25.
	got := labels[len(labels)-1]
	if math.Abs(got-25) > 3 {
		t.Errorf("final label = %v, want ~25 (rate/weight)", got)
	}
}

type appFunc func(*packet.Packet)

func (f appFunc) Receive(p *packet.Packet) { f(p) }

func TestEdgeLossDrivenAdaptation(t *testing.T) {
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
	if err := s.Run(8 * time.Second); err != nil { // reach linear phase
		t.Fatal(err)
	}
	before, _ := edge.AllowedRate(local)
	for i := 0; i < 4; i++ {
		edge.HandleLoss(local)
	}
	if err := s.Run(s.Now() + 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	after, _ := edge.AllowedRate(local)
	if want := before - 4; after != want {
		t.Errorf("rate after 4 losses = %v, want %v", after, want)
	}
}

func TestEdgeValidation(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	if _, err := net.AddNode("E"); err != nil {
		t.Fatal(err)
	}
	edge := NewEdge(net, net.Node("E"), DefaultEdgeConfig())
	if _, err := edge.AddFlow("D", -1); err == nil {
		t.Error("negative weight accepted")
	}
	if err := edge.StartFlow(7); err == nil {
		t.Error("StartFlow for unknown flow succeeded")
	}
	if _, err := edge.FlowID(0); err == nil {
		t.Error("FlowID for unknown flow succeeded")
	}
}

func TestRouterDropsAboveFairShare(t *testing.T) {
	// Feed a link its capacity from a fair flow and 3x the fair share
	// from a hog; after α converges the hog must see drops and the fair
	// flow almost none.
	s := sim.NewScheduler()
	net := netem.New(s)
	for _, n := range []string{"R", "D"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	// 500 pkt/s bottleneck.
	link, err := net.AddLink("R", "D", netem.LinkConfig{RateBps: 4e6, Delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	router := NewRouter(net, net.Node("R"), DefaultRouterConfig(), sim.NewRNG(11))

	received := map[string]int{}
	net.Node("D").SetApp(appFunc(func(p *packet.Packet) { received[p.Flow.Edge]++ }))
	var drops int
	var hogDrops int
	net.OnDrop(func(d netem.Drop) {
		drops++
		if d.Packet.Flow.Edge == "hog" {
			hogDrops++
		}
	})

	// Emit for 10 seconds: fair flow at 200 pkt/s (label 200), hog at 600
	// pkt/s (label 600). Total 800 > 500 capacity.
	inject := func(edge string, rate float64, label float64) {
		gap := time.Duration(float64(time.Second) / rate)
		var emit func()
		seq := int64(0)
		emit = func() {
			p := packet.New(packet.FlowID{Edge: edge, Local: 0}, "D", seq, s.Now())
			p.Label = label
			seq++
			net.Node("R").Inject(p)
			if s.Now() < 10*time.Second {
				s.MustAfter(gap, emit)
			}
		}
		s.MustAt(0, emit)
	}
	inject("fair", 200, 200)
	inject("hog", 600, 600)
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if drops == 0 {
		t.Fatal("no drops under 1.6x overload")
	}
	if float64(hogDrops)/float64(drops) < 0.8 {
		t.Errorf("hog took %d of %d drops; want the vast majority", hogDrops, drops)
	}
	// α should settle near the weighted fair share: capacity 500 split so
	// that fair flow (≤ its share) passes and hog is clipped: α ≈ 300.
	alpha := router.Alpha(link)
	if alpha < 200 || alpha > 420 {
		t.Errorf("α = %v, want ~300", alpha)
	}
	// Delivered rates: fair ≈ 200·10 = 2000 packets, hog clipped to
	// ~α·10.
	if received["fair"] < 1700 {
		t.Errorf("fair flow delivered %d, want ~2000 (should not be throttled)", received["fair"])
	}
	hogShare := float64(received["hog"]) / 10
	if hogShare < 200 || hogShare > 420 {
		t.Errorf("hog delivered rate = %v pkt/s, want ~α (~300)", hogShare)
	}
	if router.Stats().DroppedEarly == 0 {
		t.Error("no early drops recorded in stats")
	}
}

func TestRouterUncongestedNeverDrops(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	for _, n := range []string{"R", "D"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink("R", "D", netem.LinkConfig{RateBps: 4e6, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	NewRouter(net, net.Node("R"), DefaultRouterConfig(), sim.NewRNG(11))
	var drops int
	net.OnDrop(func(netem.Drop) { drops++ })
	count := 0
	net.Node("D").SetApp(appFunc(func(*packet.Packet) { count++ }))

	// 100 pkt/s on a 500 pkt/s link, huge label (mislabelled flow): the
	// link is uncongested, so nothing may be dropped.
	var emit func()
	seq := int64(0)
	emit = func() {
		p := packet.New(packet.FlowID{Edge: "e", Local: 0}, "D", seq, s.Now())
		p.Label = 10000
		seq++
		net.Node("R").Inject(p)
		if s.Now() < 5*time.Second {
			s.MustAfter(10*time.Millisecond, emit)
		}
	}
	s.MustAt(0, emit)
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if drops != 0 {
		t.Errorf("%d drops on an uncongested link", drops)
	}
	if count == 0 {
		t.Error("nothing delivered")
	}
}

// TestDumbbellWeightedConvergenceCSFQ mirrors the Corelite integration
// test: two flows with weights 1 and 2 must converge near 167/333 pkt/s in
// steady state (the paper finds CSFQ fair in steady state, §4.2).
func TestDumbbellWeightedConvergenceCSFQ(t *testing.T) {
	s := sim.NewScheduler()
	weights := map[int]float64{1: 1, 2: 2}
	cloud, err := topology.Dumbbell(s, 2, weights, topology.Options{})
	if err != nil {
		t.Fatalf("Dumbbell: %v", err)
	}
	net := cloud.Net

	rec := metrics.NewFlowRecorder(time.Second)
	edges := make(map[string]*Edge)
	locals := make(map[int]int)
	flowEdges := make(map[int]*Edge)
	for _, pl := range cloud.Placements {
		e := NewEdge(net, net.Node(pl.Ingress), DefaultEdgeConfig())
		local, err := e.AddFlow(pl.Egress, pl.Weight)
		if err != nil {
			t.Fatal(err)
		}
		edges[pl.Ingress] = e
		locals[pl.Index] = local
		flowEdges[pl.Index] = e
		net.Node(pl.Egress).SetApp(appFunc(func(p *packet.Packet) { rec.Deliver(p.Flow, s.Now()) }))
		e.Start()
	}
	rng := sim.NewRNG(42)
	for _, name := range []string{"A", "B"} {
		NewRouter(net, net.Node(name), DefaultRouterConfig(), rng.Stream(name))
	}
	// Deliver loss notifications to the owning edge with control-plane
	// latency.
	net.OnDrop(func(d netem.Drop) {
		if _, ok := edges[d.Packet.Flow.Edge]; ok {
			rec.Lose(d.Packet.Flow)
		}
	})
	net.OnDrop(LossNotifier(net, edges, func(err error) { t.Errorf("SendControl: %v", err) }))

	for _, pl := range cloud.Placements {
		if err := flowEdges[pl.Index].StartFlow(locals[pl.Index]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}

	r1, _ := flowEdges[1].AllowedRate(locals[1])
	r2, _ := flowEdges[2].AllowedRate(locals[2])
	total := r1 + r2
	if total < 400 || total > 600 {
		t.Errorf("aggregate rate = %v, want ~500", total)
	}
	ratio := (r2 / 2) / r1
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("normalized ratio = %.2f (r1=%v r2=%v), want ~1", ratio, r1, r2)
	}
	if rec.TotalLosses() == 0 {
		t.Error("CSFQ run recorded no losses; its congestion signal is losses")
	}
}
