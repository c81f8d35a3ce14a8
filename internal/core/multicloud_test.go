package core

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

// TestTwoCloudConcatenation exercises the paper's §6 open question —
// "interactions required between the edge routers of different autonomous
// domains" — with the natural composition the architecture suggests: a
// flow crosses cloud A edge-to-edge, and cloud A's egress hands the
// packets to cloud B's ingress edge as a shaped flow. Each cloud runs its
// own independent Corelite control loop; the end-to-end rate must settle
// at the minimum of the two clouds' weighted fair shares.
//
// Topology (one scheduler, one network, two administrative clouds):
//
//	inX -> A1 -> A2 -> mid -> B1 -> B2 -> outX     (the through flow)
//	inA  -> A1 -> A2 -> outA                        (cloud A local flow)
//	inB  -> B1 -> B2 -> outB  x2                    (cloud B local flows)
//
// Cloud A's bottleneck A1->A2 carries 2 flows (through + 1 local):
// share 250 each. Cloud B's bottleneck B1->B2 carries 3 flows (through +
// 2 local): share ~167 each. The through flow's end-to-end rate must be
// ~167 (cloud B binds), while cloud A's local flow absorbs what the
// through flow cannot use there.
func TestTwoCloudConcatenation(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	nodes := []string{"A1", "A2", "B1", "B2", "inX", "mid", "outX", "inA", "outA", "inB1", "outB1", "inB2", "outB2"}
	for _, n := range nodes {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b string) {
		t.Helper()
		if _, _, err := net.Connect(a, b, netem.LinkConfig{RateBps: 4e6, Delay: 10 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	// Cloud A.
	link("inX", "A1")
	link("inA", "A1")
	link("A1", "A2")
	link("A2", "outA")
	link("A2", "mid")
	// Cloud B.
	link("mid", "B1")
	link("inB1", "B1")
	link("inB2", "B1")
	link("B1", "B2")
	link("B2", "outX")
	link("B2", "outB1")
	link("B2", "outB2")
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}

	edges := map[string]*Edge{}
	newEdge := func(node string) *Edge {
		e := NewEdge(net, net.Node(node), DefaultEdgeConfig())
		edges[node] = e
		e.Start()
		return e
	}

	// Cloud A flows: the through flow's first leg terminates at "mid"
	// (cloud A's egress side), where cloud B's ingress edge picks it up.
	edgeInX := newEdge("inX")
	throughA, err := edgeInX.AddFlow("mid", 1)
	if err != nil {
		t.Fatal(err)
	}
	edgeInA := newEdge("inA")
	localA, err := edgeInA.AddFlow("outA", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Cloud B: the through flow continues as a shaped flow at "mid".
	edgeMid := newEdge("mid")
	throughB, err := edgeMid.AddShapedFlow(1, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	var localB [2]int
	var edgeB [2]*Edge
	for i := 0; i < 2; i++ {
		e := newEdge([]string{"inB1", "inB2"}[i])
		lb, err := e.AddFlow([]string{"outB1", "outB2"}[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		edgeB[i] = e
		localB[i] = lb
	}

	// Cloud A's egress at "mid": arriving through-flow packets are
	// re-offered into cloud B (re-addressed to the final egress).
	net.Node("mid").SetApp(appRelay(func(p *packet.Packet) {
		if p.Kind != packet.KindData {
			return
		}
		q := *p
		q.Dst = "outX"
		q.Marker = nil // markers are per-cloud; cloud B re-marks
		_, _ = edgeMid.Offer(throughB, &q)
	}))

	delivered := map[string]int{}
	for _, sink := range []string{"outX", "outA", "outB1", "outB2"} {
		sink := sink
		net.Node(sink).SetApp(appRelay(func(p *packet.Packet) { delivered[sink]++ }))
	}

	// Independent router sets per cloud (separate feedback domains).
	rng := sim.NewRNG(23)
	for _, r := range []string{"A1", "A2", "B1", "B2"} {
		NewRouter(net, net.Node(r), DefaultRouterConfig(), rng.Stream(r), ControlFeedback(net, net.Node(r), edges, nil)).Start()
	}

	for _, start := range []struct {
		e *Edge
		l int
	}{{edgeInX, throughA}, {edgeInA, localA}, {edgeMid, throughB}, {edgeB[0], localB[0]}, {edgeB[1], localB[1]}} {
		if err := start.e.StartFlow(start.l); err != nil {
			t.Fatal(err)
		}
	}

	const horizon = 120 * time.Second
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}

	secs := horizon.Seconds()
	through := float64(delivered["outX"]) / secs
	localARate := float64(delivered["outA"]) / secs
	b1 := float64(delivered["outB1"]) / secs
	b2 := float64(delivered["outB2"]) / secs

	// Cloud B binds the through flow at ~167.
	if through < 110 || through > 210 {
		t.Errorf("through flow end-to-end rate = %.0f, want ~167 (cloud B's share)", through)
	}
	// Cloud B's locals share the rest of B1->B2.
	if b1 < 110 || b1 > 230 || b2 < 110 || b2 > 230 {
		t.Errorf("cloud B locals = %.0f / %.0f, want ~167 each", b1, b2)
	}
	// Cloud A's local flow gets at least its 250 half; with the through
	// flow throttled upstream of its contract, A has slack the local can
	// absorb.
	if localARate < 200 {
		t.Errorf("cloud A local = %.0f, want >= ~250 (its cloud-A share)", localARate)
	}
	total := through + b1 + b2
	if total < 400 || total > 540 {
		t.Errorf("cloud B bottleneck total = %.0f, want ~500", total)
	}

	// The naive concatenation is lossy at the cloud boundary: cloud A
	// grants the through flow ~250 pkt/s while cloud B only forwards
	// ~167, so the inter-cloud shaper polices the difference. This wasted
	// upstream capacity is precisely the inter-domain interaction problem
	// the paper leaves as future work (§6) — the composition works, but
	// an edge-to-edge backpressure protocol would reclaim the gap.
	dropped, err := edgeMid.ShaperDropped(throughB)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Error("expected boundary policing drops (cloud A over-grants relative to cloud B)")
	}
}

// appRelay adapts a closure to netem.App.
type appRelay func(*packet.Packet)

func (f appRelay) Receive(p *packet.Packet) { f(p) }
