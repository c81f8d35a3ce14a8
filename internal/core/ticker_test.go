package core

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

// TestTickerRearmAllocs pins the epoch tickers of the router and the edge:
// after Start each runs on one re-armed registered handler, so an epoch
// allocates nothing, and no tick runs after Stop — each withdrawn entry
// fires once as a no-op and is not re-armed.
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
	edge.Stop()
	before := s.Processed()
	if err := s.Run(s.Now() + time.Minute); err != nil {
		t.Fatal(err)
	}
	// A minute holds hundreds of epochs; a tick that ran would re-arm.
	if got := s.Processed() - before; got != 2 || s.Len() != 0 {
		t.Fatalf("%d events ran after Stop with %d pending, want the 2 withdrawn no-ops and none", got, s.Len())
	}
}
