package netem

import (
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// diamond wires A->B->D (2+2 ms), A->C->D (1+10 ms), C->E->D (5+5 ms) and
// X->C (1 ms), all one-way: the shortest A -> D path runs via B, and C's
// runs direct.
func diamond(t *testing.T) *Network {
	t.Helper()
	n := New(sim.NewScheduler())
	for _, name := range []string{"A", "B", "C", "D", "E", "X"} {
		mustNode(t, n, name)
	}
	for _, l := range []struct {
		from, to string
		ms       int
	}{{"A", "B", 2}, {"B", "D", 2}, {"A", "C", 1}, {"C", "D", 10}, {"C", "E", 5}, {"E", "D", 5}, {"X", "C", 1}} {
		mustLink(t, n, l.from, l.to, LinkConfig{RateBps: 1e6, Delay: time.Duration(l.ms) * time.Millisecond})
	}
	return n
}

func mustPath(t *testing.T, n *Network, from, to string, want ...string) {
	t.Helper()
	got, err := n.Path(from, to)
	if err != nil || !slices.Equal(got, want) {
		t.Errorf("Path(%s, %s) = %v (%v), want %v", from, to, got, err, want)
	}
}

// TestInstallRouteForwardsFromEveryNodeOnPath pins a path that is not the
// shortest one: packets injected at any node of it toward its destination
// follow the rest of it, and so do packets whose shortest path reaches one
// of its nodes.
func TestInstallRouteForwardsFromEveryNodeOnPath(t *testing.T) {
	n := diamond(t)
	mustPath(t, n, "A", "D", "A", "B", "D")
	mustPath(t, n, "X", "D", "X", "C", "D")
	if err := n.InstallRoute([]string{"A", "C", "E", "D"}); err != nil {
		t.Fatal(err)
	}
	mustPath(t, n, "A", "D", "A", "C", "E", "D")
	mustPath(t, n, "C", "D", "C", "E", "D")
	mustPath(t, n, "E", "D", "E", "D")
	mustPath(t, n, "B", "D", "B", "D")
	// X's shortest path meets the pinned path at C.
	mustPath(t, n, "X", "D", "X", "C", "E", "D")
	// Another destination is routed as before.
	mustPath(t, n, "A", "E", "A", "C", "E")

	var at []string
	n.Node("D").SetApp(appFn(func(p *packet.Packet) { at = append(at, p.Flow.Edge) }))
	for _, src := range []string{"A", "C", "X"} {
		n.Node(src).Inject(packet.New(packet.FlowID{Edge: src}, "D", 0, 0))
	}
	if err := n.Scheduler().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 3 {
		t.Fatalf("delivered %v, want one packet from each of A, C, X", at)
	}
	for _, name := range []string{"C->E", "E->D"} {
		if got := n.Node(name[:1]).LinkTo(name[3:]).Stats().Arrived; got != 3 {
			t.Errorf("%s carried %d packets, want 3", name, got)
		}
	}
}

// TestInstallRouteControlDelays checks the pinned path's control plane:
// back along the reverse links where they exist, even when routing would
// find a shorter way, and by routing past a missing one.
func TestInstallRouteControlDelays(t *testing.T) {
	n := New(sim.NewScheduler())
	for _, name := range []string{"A", "B", "C", "D"} {
		mustNode(t, n, name)
	}
	link := func(from, to string, ms int) {
		mustLink(t, n, from, to, LinkConfig{RateBps: 1e6, Delay: time.Duration(ms) * time.Millisecond})
	}
	link("A", "B", 1)
	link("B", "A", 5)
	link("B", "C", 1)
	link("C", "B", 7)
	link("C", "A", 3)
	link("C", "D", 1)
	link("D", "A", 2)
	if err := n.InstallRoute([]string{"A", "B", "C", "D"}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		from string
		want time.Duration
	}{
		{"A", 0},
		{"B", 5 * time.Millisecond},
		{"C", 12 * time.Millisecond}, // C->B->A, not the direct 3 ms
		{"D", 2 * time.Millisecond},  // no D->C link: routed
	} {
		if got, err := n.PathDelay(c.from, "A"); err != nil || got != c.want {
			t.Errorf("PathDelay(%s, A) = %v (%v), want %v", c.from, got, err, c.want)
		}
	}
	if _, err := n.PathDelay("A", "nowhere"); err == nil {
		t.Error("PathDelay to an unknown node succeeded")
	}
}

// TestRoutesFollowTopologyChanges checks that a link added after a route
// was resolved takes effect for the next packet, also for a node whose
// last injection went the same way.
func TestRoutesFollowTopologyChanges(t *testing.T) {
	n := diamond(t)
	var hops int64
	n.Node("D").SetApp(appFn(func(*packet.Packet) { hops++ }))
	n.Node("A").Inject(packet.New(packet.FlowID{Edge: "A"}, "D", 0, 0))
	mustLink(t, n, "A", "D", LinkConfig{RateBps: 1e6, Delay: time.Millisecond})
	n.Node("A").Inject(packet.New(packet.FlowID{Edge: "A"}, "D", 1, 0))
	if err := n.Scheduler().RunAll(); err != nil {
		t.Fatal(err)
	}
	if hops != 2 {
		t.Fatalf("delivered %d packets, want 2", hops)
	}
	if got := n.Node("A").LinkTo("D").Stats().Arrived; got != 1 {
		t.Errorf("the new A->D link carried %d packets, want 1", got)
	}
	mustPath(t, n, "A", "D", "A", "D")
}
