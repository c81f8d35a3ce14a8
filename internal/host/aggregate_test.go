package host

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestMicroFlowAggregation exercises the paper's §2 definition: "any
// reference to a flow ... signifies an edge to edge flow that can
// potentially comprise of several end to end micro flows". Two TCP micro
// flows share ONE Corelite edge-to-edge flow (one shaper, one weight); a
// second edge flow with equal weight runs a single backlogged source. The
// aggregate of the two micro flows must receive the same share as the
// single flow, and the micro flows split their aggregate between
// themselves.
func TestMicroFlowAggregation(t *testing.T) {
	s := sim.NewScheduler()
	weights := map[int]float64{1: 1, 2: 1}
	cloud, err := topology.Dumbbell(s, 2, weights, topology.Options{})
	if err != nil {
		t.Fatalf("Dumbbell: %v", err)
	}
	net := cloud.Net
	edges := make(map[string]*core.Edge)

	// Flow slot 1: a shaped edge flow carrying two TCP micro flows. The
	// micro flows are distinguished by disjoint sequence ranges (micro A
	// uses even-million bases, micro B odd) so one receiver per micro
	// flow can track them independently.
	pl1 := cloud.Placements[0]
	e1 := core.NewEdge(net, net.Node(pl1.Ingress), core.DefaultEdgeConfig())
	edges[pl1.Ingress] = e1
	local1, err := e1.AddShapedFlow(pl1.Weight, 0, 64)
	if err != nil {
		t.Fatalf("AddShapedFlow: %v", err)
	}

	const microBOffset = 1 << 40
	mkSender := func(offset int64) *Sender {
		sender, err := NewSender(s, SenderConfig{
			Flow: packet.FlowID{Edge: pl1.Ingress, Local: local1},
			Dst:  pl1.Egress,
			Transmit: func(p *packet.Packet) bool {
				p.Seq += offset
				ok, offerErr := e1.Offer(local1, p)
				return offerErr == nil && ok
			},
		})
		if err != nil {
			t.Fatalf("NewSender: %v", err)
		}
		return sender
	}
	microA := mkSender(0)
	microB := mkSender(microBOffset)
	recvA := NewReceiver(s, pl1.Ingress, func(ack *packet.Packet) { net.Node(pl1.Egress).Inject(ack) })
	recvB := NewReceiver(s, pl1.Ingress, func(ack *packet.Packet) {
		ack.Seq += microBOffset // restore micro B's namespace
		net.Node(pl1.Egress).Inject(ack)
	})
	net.Node(pl1.Egress).SetApp(appFn(func(p *packet.Packet) {
		if p.Kind != packet.KindData {
			return
		}
		if p.Seq >= microBOffset {
			q := *p
			q.Seq -= microBOffset
			recvB.Deliver(&q)
		} else {
			recvA.Deliver(p)
		}
	}))
	net.Node(pl1.Ingress).SetApp(appFn(func(p *packet.Packet) {
		if p.Kind != packet.KindAck {
			return
		}
		if p.Seq >= microBOffset {
			microB.OnAck(p.Seq - microBOffset)
		} else {
			microA.OnAck(p.Seq)
		}
	}))

	// Flow slot 2: a plain backlogged flow with equal weight.
	pl2 := cloud.Placements[1]
	e2 := core.NewEdge(net, net.Node(pl2.Ingress), core.DefaultEdgeConfig())
	edges[pl2.Ingress] = e2
	local2, err := e2.AddFlow(pl2.Egress, pl2.Weight)
	if err != nil {
		t.Fatalf("AddFlow: %v", err)
	}
	delivered2 := 0
	net.Node(pl2.Egress).SetApp(appFn(func(p *packet.Packet) { delivered2++ }))

	// Corelite core routers with feedback wiring.
	rng := sim.NewRNG(17)
	for _, name := range []string{"A", "B"} {
		core.NewRouter(net, net.Node(name), core.DefaultRouterConfig(), rng.Stream(name), core.ControlFeedback(net, net.Node(name), edges, nil)).Start()
	}

	e1.Start()
	e2.Start()
	if err := e1.StartFlow(local1); err != nil {
		t.Fatal(err)
	}
	if err := e2.StartFlow(local2); err != nil {
		t.Fatal(err)
	}
	microA.Start()
	microB.Start()

	if err := s.Run(90 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}

	aggregate := float64(microA.Acked()+microB.Acked()) / 90
	single := float64(delivered2) / 90
	// Equal weights: the two-micro-flow aggregate and the single flow
	// each get ~250 pkt/s.
	if aggregate < 150 || aggregate > 330 {
		t.Errorf("aggregate micro-flow goodput = %.0f, want ~250", aggregate)
	}
	if single < 170 || single > 330 {
		t.Errorf("single flow goodput = %.0f, want ~250", single)
	}
	// Both micro flows make progress within the aggregate.
	if microA.Acked() == 0 || microB.Acked() == 0 {
		t.Errorf("a micro flow starved: A=%d B=%d", microA.Acked(), microB.Acked())
	}
}
