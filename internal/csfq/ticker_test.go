package csfq

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

// TestTickerRearmAllocs pins the edge's epoch ticker: after Start it runs on
// one re-armed registered handler, so an epoch allocates nothing, and no
// tick runs after Stop — the withdrawn entry fires once as a no-op and is
// not re-armed.
func TestTickerRearmAllocs(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	for _, n := range []string{"E", "D"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink("E", "D", netem.LinkConfig{RateBps: 4e6, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	edge := NewEdge(net, net.Node("E"), DefaultEdgeConfig())
	if _, err := edge.AddFlow("D", 1); err != nil {
		t.Fatal(err)
	}
	edge.Start()
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if allocs := testing.AllocsPerRun(200, func() { s.Step() }); allocs != 0 {
		t.Fatalf("an idle epoch allocates %.1f objects, want 0", allocs)
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len() = %d with the ticker re-armed, want 1", got)
	}
	edge.Stop()
	before := s.Processed()
	if err := s.Run(s.Now() + time.Minute); err != nil {
		t.Fatal(err)
	}
	// A minute holds hundreds of epochs; a tick that ran would re-arm.
	if got := s.Processed() - before; got != 1 || s.Len() != 0 {
		t.Fatalf("%d events ran after Stop with %d pending, want the withdrawn no-op and none", got, s.Len())
	}
}
