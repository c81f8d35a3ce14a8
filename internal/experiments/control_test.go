package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topogen"
	"repro/internal/topospec"
)

// TestOneWaySpecRefused builds a Y-shaped cloud wired with one-way links
// only: data reaches the egress, but no core has a path back to an ingress
// edge, so every marker feedback would be lost and the flows would run
// open loop. The run is refused before it starts, in one line naming the
// flow and the node.
func TestOneWaySpecRefused(t *testing.T) {
	const y = `
node A core
node B core
node C core
node D core
link A C 4Mbps 10ms
link B C 4Mbps 10ms
link C D 4Mbps 10ms
node in1 edge
node in2 edge
node out1 edge
node out2 edge
link in1 A 40Mbps 1ms
link in2 B 40Mbps 1ms
link D out1 40Mbps 1ms
link D out2 40Mbps 1ms
flow 1 in1 out1 weight=1
flow 2 in2 out2 weight=2
`
	spec, err := topospec.Parse(strings.NewReader(y))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	_, err = Run(Scenario{Name: "one-way-y", Scheme: SchemeCorelite, Duration: 10 * time.Second, Seed: 1, Spec: spec})
	if err == nil {
		t.Fatal("Run accepted a cloud with no control path back to any ingress")
	}
	msg := err.Error()
	if !strings.Contains(msg, "flow 1: node A has no path back to in1") || strings.Contains(msg, "\n") {
		t.Errorf("error = %q, want one line naming flow 1 and node A", msg)
	}
}

// TestLossAtIngressHasControlPath covers drops on a flow's own access link:
// the node that drops is the flow's ingress, and its loss notification
// must reach the edge there at once. On a fat-tree with slow host links
// every flow's path has a zero-delay control path from its ingress to
// itself and a path back from every other node, and the CSFQ run, which
// drops at the ingress and would now fail on a notification with no path,
// completes.
func TestLossAtIngressHasControlPath(t *testing.T) {
	cfg, err := topogen.Parse("fattree:k=4,flows=32,host=1Mbps,fabric=4Mbps")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cfg.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := spec.Build(sim.NewScheduler())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range spec.Flows {
		for i, node := range f.Via {
			d, err := cloud.Net.PathDelay(node, f.Ingress)
			if err != nil || (i == 0) != (d == 0) {
				t.Fatalf("flow %d: control delay %s -> %s = %v (%v)", f.Index, node, f.Ingress, d, err)
			}
		}
	}
	res, err := Run(Scenario{Name: "fattree-csfq", Scheme: SchemeCSFQ, Duration: 5 * time.Second, Seed: 1,
		Generate: &Generate{Topo: cfg}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TotalLosses == 0 {
		t.Error("no losses: the scenario no longer exercises drops at the ingress")
	}
}

// TestTCPAcksOnPinnedFatTree runs TCP over a generated fat-tree, where every
// flow pins its forward path and nothing pins the way back. The ACKs route
// on the shortest path from the egress host to the ingress host, so the
// sender's window opens and data flows for the whole run.
func TestTCPAcksOnPinnedFatTree(t *testing.T) {
	cfg, err := topogen.Parse("fattree:k=4,flows=2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Scenario{Name: "fattree-tcp", Scheme: SchemeCorelite, Duration: 20 * time.Second, Seed: 1,
		Generate: &Generate{Topo: cfg}, Transports: map[int]Transport{1: TransportTCP}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.Flow(1).ReceiveRate.MeanOver(10*time.Second, 20*time.Second); got < 50 {
		t.Errorf("TCP goodput over the last 10 s = %.1f pkt/s, want an open window", got)
	}
}

// TestControlPlaneAllocsPerMessage pins the control plane's allocation
// cost on the paper chain: marker feedback (Corelite) and loss
// notifications (CSFQ) travel as pooled records on the scheduler's handler
// tier, so a message allocates nothing. The figure is marginal — the
// allocations of a 120 s run less those of a 40 s run, over the messages
// sent in between — so set-up cost cancels. The messages are counted on an
// observed replay of each run: the routers' feedback counters for
// Corelite, and for CSFQ the drops, every one of which notifies its flow's
// edge (the chain carries no cross traffic and no unresponsive flow).
func TestControlPlaneAllocsPerMessage(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCorelite, SchemeCSFQ} {
		t.Run(scheme.String(), func(t *testing.T) {
			chain := func(d time.Duration) Scenario {
				sc := Fig3Scenario(1)
				sc.Scheme, sc.Duration, sc.Schedules = scheme, d, nil
				return sc
			}
			run := func(sc Scenario) {
				if _, err := Run(sc); err != nil {
					t.Fatal(err)
				}
			}
			messages := func(sc Scenario) int64 {
				if len(sc.Unresponsive) > 0 || len(sc.Cross) > 0 {
					t.Fatal("every drop must notify an edge: no unresponsive flows or cross traffic")
				}
				sc.Obs, sc.ObsSample = obs.NewRegistry(), -1
				run(sc)
				sum := sc.Obs.Summary()
				if scheme == SchemeCorelite {
					return sum.FeedbackSent
				}
				return sum.Drops
			}
			short, long := chain(40*time.Second), chain(120*time.Second)
			sent := messages(long) - messages(short)
			if sent < 1000 {
				t.Fatalf("only %d control messages between the runs; the pin needs a congested chain", sent)
			}
			allocs := testing.AllocsPerRun(1, func() { run(long) }) - testing.AllocsPerRun(1, func() { run(short) })
			perMsg := allocs / float64(sent)
			t.Logf("%s: %.0f allocations over %d control messages = %.4f per message", scheme, allocs, sent, perMsg)
			if perMsg >= 0.05 {
				t.Errorf("%s control plane allocates %.3f objects per message, want < 0.05", scheme, perMsg)
			}
		})
	}
}
