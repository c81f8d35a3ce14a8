package core

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// shapedFixture builds a one-hop network with a Corelite edge owning a
// shaped flow.
func shapedFixture(t *testing.T) (*sim.Scheduler, *netem.Network, *Edge, int) {
	t.Helper()
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
	local, err := edge.AddShapedFlow(2, 0, 8)
	if err != nil {
		t.Fatalf("AddShapedFlow: %v", err)
	}
	return s, net, edge, local
}

func TestShapedFlowOfferAndRelease(t *testing.T) {
	s, net, edge, local := shapedFixture(t)
	var got []*packet.Packet
	net.Node("D").SetApp(&captureApp{fn: func(p *packet.Packet) { got = append(got, p) }})
	if err := edge.StartFlow(local); err != nil {
		t.Fatal(err)
	}
	// Offer 3 host packets; they must be stamped with the edge flow id
	// and released at the allowed rate.
	for i := 0; i < 3; i++ {
		p := packet.New(packet.FlowID{Edge: "host", Local: 99}, "D", int64(i), 0)
		ok, err := edge.Offer(local, p)
		if err != nil || !ok {
			t.Fatalf("Offer %d: %v %v", i, ok, err)
		}
	}
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d, want 3", len(got))
	}
	wantID := packet.FlowID{Edge: "E", Local: local}
	for _, p := range got {
		if p.Flow != wantID {
			t.Errorf("packet flow = %v, want re-stamped %v", p.Flow, wantID)
		}
	}
	if edge.Node().Name() != "E" {
		t.Errorf("Node().Name() = %q", edge.Node().Name())
	}
}

func TestShapedFlowQueueAccounting(t *testing.T) {
	s, _, edge, local := shapedFixture(t)
	if err := edge.StartFlow(local); err != nil {
		t.Fatal(err)
	}
	// Rate 1 pkt/s: offers pile up in the 8-deep queue, and the shaper
	// refuses the rest.
	queued, dropped := 0, 0
	for i := 0; i < 12; i++ {
		p := packet.New(packet.FlowID{}, "D", int64(i), 0)
		ok, err := edge.Offer(local, p)
		switch {
		case err != nil:
			t.Fatal(err)
		case ok:
			queued++
		default:
			dropped++
		}
	}
	if queued != 8 {
		t.Errorf("queued %d offers, want 8", queued)
	}
	if dropped != 4 {
		t.Errorf("dropped %d offers, want 4", dropped)
	}
	_ = s
}

func TestShapedFlowErrors(t *testing.T) {
	_, _, edge, _ := shapedFixture(t)
	if _, err := edge.AddShapedFlow(0, 0, 8); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := edge.AddShapedFlow(1, -1, 8); err == nil {
		t.Error("negative contract accepted")
	}
	// Offer on a source-backed flow must fail.
	srcLocal, err := edge.AddFlow("D", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := edge.Offer(srcLocal, packet.New(packet.FlowID{}, "D", 0, 0)); err == nil {
		t.Error("Offer on a source-backed flow succeeded")
	}
	if _, err := edge.Offer(99, packet.New(packet.FlowID{}, "D", 0, 0)); err == nil {
		t.Error("Offer on unknown flow succeeded")
	}
}

func TestContractAccessors(t *testing.T) {
	_, _, edge, _ := shapedFixture(t)
	local, err := edge.AddFlowContract("D", 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	f, err := edge.Flow(local)
	if err != nil {
		t.Fatal(err)
	}
	if f.State.minRate != 40 {
		t.Errorf("min rate %v, want 40", f.State.minRate)
	}
	if _, err := edge.Flow(99); err == nil {
		t.Error("Flow(99) succeeded")
	}
}

func TestStringers(t *testing.T) {
	if SelectorCache.String() != "cache" || SelectorStateless.String() != "stateless" {
		t.Error("SelectorKind strings wrong")
	}
	if SelectorKind(99).String() != "unknown" {
		t.Error("unknown selector string wrong")
	}
	if DetectorMM1Cubic.String() != "mm1-cubic" ||
		DetectorLinear.String() != "linear" ||
		DetectorEWMA.String() != "ewma" ||
		DetectorKind(99).String() != "unknown" {
		t.Error("DetectorKind strings wrong")
	}
}

func TestConfigNormalization(t *testing.T) {
	cfg := normalizeRouterConfig(RouterConfig{})
	def := DefaultRouterConfig()
	if cfg.Epoch != def.Epoch || cfg.QThresh != def.QThresh ||
		cfg.CorrectionK != def.CorrectionK || cfg.Selector != def.Selector ||
		cfg.DampingGamma != def.DampingGamma || cfg.Detector != def.Detector {
		t.Errorf("zero config did not normalize to defaults: %+v", cfg)
	}
	// Ablations: a negative k or gamma means "off" and survives
	// normalization, twice over.
	off := normalizeRouterConfig(normalizeRouterConfig(RouterConfig{CorrectionK: -1, DampingGamma: -1}))
	if off.CorrectionK >= 0 {
		t.Errorf("k=-1 normalized to %v, want negative (off)", off.CorrectionK)
	}
	if off.DampingGamma >= 0 {
		t.Errorf("gamma=-1 normalized to %v, want negative (off)", off.DampingGamma)
	}
	// Clamp gamma >= 1.
	high := normalizeRouterConfig(RouterConfig{DampingGamma: 2})
	if high.DampingGamma != 0.9 {
		t.Errorf("gamma 2 clamped to %v, want 0.9", high.DampingGamma)
	}
}

func TestRouterStatsAccumulate(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	reg := obs.NewRegistry()
	net.SetObs(reg)
	for _, n := range []string{"E", "R", "D"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	// Slow bottleneck so congestion arises quickly.
	if _, err := net.AddLink("E", "R", netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddLink("R", "D", netem.LinkConfig{RateBps: 4e6, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddLink("R", "E", netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond}); err != nil {
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
	fb := 0
	bottleneck := net.Node("R").LinkTo("D")
	router := NewRouter(net, net.Node("R"), DefaultRouterConfig(), sim.NewRNG(2),
		func(m packet.Marker, coreID string) {
			fb++
			if coreID != bottleneck.Name() {
				t.Errorf("feedback names link %s, want the bottleneck %s", coreID, bottleneck.Name())
			}
			edge.HandleFeedback(m.Flow.Local, bottleneck.ID())
		})
	router.Start()
	defer router.ticker.Stop()
	net.Node("D").SetApp(&captureApp{fn: func(*packet.Packet) {}})
	edge.Start()
	defer edge.Stop()
	if err := edge.StartFlow(local); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	markers := reg.Counter("core/R/markers-seen").Value()
	sent := reg.Counter("core/R" + obs.SuffixFeedbackSent).Value()
	if markers == 0 {
		t.Error("router saw no markers")
	}
	if sent == 0 || fb == 0 {
		t.Error("router sent no feedback despite a single flow saturating the link")
	}
	if reg.Counter("core/R"+obs.SuffixCongestionEpochs).Value() == 0 {
		t.Error("no congestion epochs recorded")
	}
	if sent != int64(fb) {
		t.Errorf("feedback-sent counter %d but callback saw %d", sent, fb)
	}
}

func TestByteMarking(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	for _, n := range []string{"E", "D"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink("E", "D", netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond, Queue: netem.NewDropTail(1 << 16)}); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEdgeConfig()
	cfg.MarkBytes = true
	cfg.Adapt.InitialRate = 100
	cfg.Adapt.SSThresh = 1 // hold the rate constant
	edge := NewEdge(net, net.Node("E"), cfg)
	local, err := edge.AddShapedFlow(1, 0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	markers, data := 0, 0
	net.Node("D").SetApp(&captureApp{fn: func(p *packet.Packet) {
		data++
		if p.Marker != nil {
			markers++
		}
	}})
	if err := edge.StartFlow(local); err != nil {
		t.Fatal(err)
	}
	// Offer 400 half-size (500B) packets: with byte marking every
	// 1000 bytes, every SECOND packet carries a marker.
	for i := 0; i < 400; i++ {
		p := packet.New(packet.FlowID{}, "D", int64(i), 0)
		p.SizeBytes = 500
		if ok, err := edge.Offer(local, p); err != nil || !ok {
			t.Fatalf("Offer %d: %v %v", i, ok, err)
		}
	}
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if data != 400 {
		t.Fatalf("delivered %d, want 400", data)
	}
	if markers < 195 || markers > 205 {
		t.Errorf("byte marking produced %d markers over 400 half-size packets, want ~200", markers)
	}
}
