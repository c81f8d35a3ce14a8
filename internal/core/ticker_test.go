package core

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

// TestTickerRearmAllocs pins the epoch tickers of the router and the edge:
// after Start each runs on one re-armed scheduler handle, so an epoch
// allocates nothing, and Stop after n epochs cancels that handle — Len()
// drops by one and epoch n+1 never fires.
func TestTickerRearmAllocs(t *testing.T) {
	s := sim.NewScheduler()
	net := netem.New(s)
	for _, n := range []string{"E", "C", "D"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"E", "C"}, {"C", "D"}} {
		if _, err := net.AddLink(l[0], l[1], netem.LinkConfig{RateBps: 4e6, Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	edge := NewEdge(net, net.Node("E"), DefaultEdgeConfig())
	if _, err := edge.AddFlow("D", 1); err != nil {
		t.Fatal(err)
	}
	router := NewRouter(net, net.Node("C"), DefaultRouterConfig(), sim.NewRNG(1), func(packet.Marker, string) {})
	edge.Start()
	router.Start()
	if got := s.Len(); got != 2 {
		t.Fatalf("Len() = %d after Start, want the two tickers", got)
	}
	for i := 0; i < 20; i++ { // past both phase offsets, into steady epochs
		s.Step()
	}
	if allocs := testing.AllocsPerRun(200, func() { s.Step() }); allocs != 0 {
		t.Fatalf("an idle epoch allocates %.1f objects, want 0", allocs)
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len() = %d with both tickers re-armed, want 2", got)
	}
	router.Stop()
	if got := s.Len(); got != 1 {
		t.Fatalf("Len() = %d after Router.Stop, want 1", got)
	}
	edge.Stop()
	if got := s.Len(); got != 0 {
		t.Fatalf("Len() = %d after Edge.Stop, want 0", got)
	}
	before := s.Processed()
	if err := s.Run(s.Now() + time.Minute); err != nil {
		t.Fatal(err)
	}
	if s.Processed() != before {
		t.Fatalf("%d epochs fired after Stop", s.Processed()-before)
	}
}
