package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/invariant"
)

// sharedIngress routes three flows from one ingress node, in1, over one
// 4 Mbps core link: the shape in which every flow of a node must live on
// one edge, under its own local id.
const sharedIngress = `
node A core
node B core
node in1 edge
node out1 edge
node out2 edge
node out3 edge
duplex A B 4Mbps 10ms
duplex in1 A 40Mbps 1ms
duplex B out1 40Mbps 1ms
duplex B out2 40Mbps 1ms
duplex B out3 40Mbps 1ms
flow 1 in1 out1 weight=1
flow 2 in1 out2 weight=2
flow 3 in1 out3 weight=1
`

// TestSharedIngressFlowsStayApart pins that flows entering at one node keep
// their own records and their own control loops on the packet backend:
// under both schemes the run passes the fairness check at its default
// tolerance, with and without an unresponsive blaster among the node's
// flows. When each flow built its own edge, all three took the id
// {in1, 0}, their traffic was summed into one record and all feedback went
// to the last edge built; a blaster's {in1, index} id collided with an
// edge flow's local id.
func TestSharedIngressFlowsStayApart(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCorelite, SchemeCSFQ} {
		for _, blast := range []bool{false, true} {
			sc := Scenario{
				Name:     "shared-ingress",
				Scheme:   scheme,
				Spec:     parseSpec(t, sharedIngress),
				Duration: 200 * time.Second,
				Seed:     1,
				Check:    invariant.New(invariant.Config{}),
			}
			if blast {
				// Under CSFQ the blast must exceed its weighted share of
				// 125 pkt/s: the oracle has no demand cap for a policed
				// blaster (see Scenario.Unresponsive).
				rate := 100.0
				if scheme == SchemeCSFQ {
					rate = 200
				}
				sc.Unresponsive = map[int]float64{1: rate}
			}
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("%s blast=%v: %v", scheme, blast, err)
			}
			if res.TotalViolations != 0 {
				t.Errorf("%s blast=%v: %d violations, first %v", scheme, blast, res.TotalViolations, res.Violations[0])
			}
			seen := map[int64]int{}
			for _, f := range res.Flows {
				if other, dup := seen[f.Delivered]; dup {
					t.Errorf("%s blast=%v: flows %d and %d both delivered %d packets", scheme, blast, other, f.Index, f.Delivered)
				}
				seen[f.Delivered] = f.Index
			}
		}
	}
}

// TestTCPRefusesSharedNode pins that a TCP flow may not share its ingress
// or egress node: its receiver and ACK sink are the only application those
// nodes run.
func TestTCPRefusesSharedNode(t *testing.T) {
	sc := Scenario{
		Scheme:     SchemeCorelite,
		Spec:       parseSpec(t, sharedIngress),
		Duration:   time.Second,
		Transports: map[int]Transport{2: TransportTCP},
	}
	_, err := Run(sc)
	if err == nil || !strings.Contains(err.Error(), "flow 2: a TCP flow needs its own ingress and egress nodes") {
		t.Fatalf("Run = %v, want flow 2 refused for sharing in1", err)
	}
}
