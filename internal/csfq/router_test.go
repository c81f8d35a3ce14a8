package csfq

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

func TestRouterRelabelsToAlpha(t *testing.T) {
	// After α converges on a congested link, accepted packets with labels
	// above α must leave relabelled to α (needed for correct treatment at
	// downstream congested links).
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
	router := NewRouter(net, net.Node("R"), DefaultRouterConfig(), sim.NewRNG(3))
	var labels []float64
	net.Node("D").SetApp(appFunc(func(p *packet.Packet) { labels = append(labels, p.Label) }))

	// Overload: two flows at 400 pkt/s each (labels 400) on a 500 pkt/s
	// link.
	emit := func(edge string) {
		var seq int64
		var fire func()
		fire = func() {
			p := packet.New(packet.FlowID{Edge: edge, Local: 0}, "D", seq, s.Now())
			p.Label = 400
			seq++
			net.Node("R").Inject(p)
			if s.Now() < 10*time.Second {
				s.RescheduleAfter(2500 * time.Microsecond)
			}
		}
		postAt(s, 0, fire)
	}
	emit("a")
	emit("b")
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if router.Stats().Relabelled == 0 {
		t.Fatal("no packets relabelled under overload")
	}
	// Labels in the steady-state tail should be clamped near α (~250).
	tail := labels[len(labels)-500:]
	maxLabel := 0.0
	for _, l := range tail {
		if l > maxLabel {
			maxLabel = l
		}
	}
	if maxLabel > 400 {
		t.Errorf("tail label %v exceeds the original label", maxLabel)
	}
	if maxLabel > 350 {
		t.Errorf("tail labels not clamped toward α (~250): max %v", maxLabel)
	}
}

func TestAlphaTracksUncongestedMaxLabel(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	for _, n := range []string{"R", "D"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	link, err := net.AddLink("R", "D", netem.LinkConfig{RateBps: 4e6, Delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	router := NewRouter(net, net.Node("R"), DefaultRouterConfig(), sim.NewRNG(3))
	net.Node("D").SetApp(appFunc(func(*packet.Packet) {}))

	// Congest briefly so α initializes, then go quiet at 100 pkt/s with
	// label 100: α must relax to the observed max label.
	var seq int64
	inject := func(label float64) {
		p := packet.New(packet.FlowID{Edge: "a", Local: 0}, "D", seq, s.Now())
		p.Label = label
		seq++
		net.Node("R").Inject(p)
	}
	var burst func()
	burst = func() {
		inject(600)
		if s.Now() < 3*time.Second {
			s.RescheduleAfter(1600 * time.Microsecond) // 625 pkt/s: congested
		}
	}
	postAt(s, 0, burst)
	var calm func()
	calm = func() {
		inject(100)
		if s.Now() < 10*time.Second {
			s.RescheduleAfter(10 * time.Millisecond) // 100 pkt/s
		}
	}
	postAt(s, 3*time.Second+time.Millisecond, calm)
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	alpha := router.Alpha(link)
	if math.Abs(alpha-100) > 15 {
		t.Errorf("α after calm period = %v, want ~100 (max observed label)", alpha)
	}
}

// TestEwmaRateProperty: for any positive constant gap, the estimator
// converges to 1/gap within a few averaging windows.
func TestEwmaRateProperty(t *testing.T) {
	f := func(gapMsRaw uint8) bool {
		gapMs := int(gapMsRaw%50) + 1
		gap := time.Duration(gapMs) * time.Millisecond
		k := 100 * time.Millisecond
		est := 0.0
		now := time.Duration(0)
		last := time.Duration(0)
		has := false
		for i := 0; i < 2000; i++ {
			est = ewmaRate(est, last, now, k, has)
			last = now
			has = true
			now += gap
		}
		want := 1 / gap.Seconds()
		return math.Abs(est-want)/want < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOverflowDecaysAlpha(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	for _, n := range []string{"R", "D"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	// Tiny buffer to force overflows.
	link, err := net.AddLink("R", "D", netem.LinkConfig{
		RateBps: 4e6, Delay: time.Millisecond, Queue: netem.NewDropTail(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	router := NewRouter(net, net.Node("R"), DefaultRouterConfig(), sim.NewRNG(3))
	net.Node("D").SetApp(appFunc(func(*packet.Packet) {}))

	// Mislabelled aggressive traffic: labels say 10 (way under fair
	// share) so the probabilistic dropper passes everything; only buffer
	// overflows can push back, and each must shave α.
	var seq int64
	var alphaAfterCongestion float64
	var fire func()
	fire = func() {
		p := packet.New(packet.FlowID{Edge: "liar", Local: 0}, "D", seq, s.Now())
		p.Label = 10
		seq++
		net.Node("R").Inject(p)
		if s.Now() == 5*time.Second {
			alphaAfterCongestion = router.Alpha(link)
		}
		if s.Now() < 10*time.Second {
			s.RescheduleAfter(time.Millisecond) // 1000 pkt/s into 500
		}
	}
	postAt(s, 0, fire)
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if alphaAfterCongestion == 0 {
		t.Skip("α never initialized; overflow decay unobservable")
	}
	if router.Alpha(link) >= alphaAfterCongestion {
		t.Errorf("α did not decay under persistent overflow: %v -> %v",
			alphaAfterCongestion, router.Alpha(link))
	}
}
