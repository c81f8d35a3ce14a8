package invariant

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

func TestNilCheckerIsNoOp(t *testing.T) {
	var c *Checker
	if c.Enabled() {
		t.Fatal("nil checker reports Enabled")
	}
	// None of these may panic.
	c.Attach(nil)
	c.ObserveRouter(nil)
	c.ObserveEdge(nil)
	c.Start(sim.NewScheduler(), time.Second)
	c.Sweep(0)
	c.CheckFairness(0, []FlowRate{{Index: 1, Expected: 10, Measured: 0}})
	if got := c.Violations(); got != nil {
		t.Fatalf("nil checker Violations() = %v, want nil", got)
	}
	if c.Sweeps() != 0 || c.Checks() != 0 || c.Overflow() != 0 {
		t.Fatal("nil checker reports non-zero counters")
	}
	if cfg := c.Config(); cfg != (Config{}) {
		t.Fatalf("nil checker Config() = %+v, want zero", cfg)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := New(Config{})
	cfg := c.Config()
	if cfg.Every != time.Second {
		t.Errorf("Every default = %v, want 1s", cfg.Every)
	}
	if cfg.FairnessTol != 0.05 {
		t.Errorf("FairnessTol default = %v, want 0.05", cfg.FairnessTol)
	}
	if cfg.MinSteady != 40*time.Second {
		t.Errorf("MinSteady default = %v, want 40s", cfg.MinSteady)
	}
	if cfg.MaxViolations != 64 {
		t.Errorf("MaxViolations default = %v, want 64", cfg.MaxViolations)
	}
}

// buildPair wires A->B with one flow's worth of injected packets and runs
// the scheduler dry, so every structural invariant should hold.
func buildPair(t *testing.T) (*netem.Network, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)
	for _, n := range []string{"A", "B"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink("A", "B", netem.LinkConfig{RateBps: 8000, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return net, sched
}

func TestSweepCleanNetwork(t *testing.T) {
	net, sched := buildPair(t)
	c := New(Config{Every: 100 * time.Millisecond})
	c.Attach(net)
	c.Start(sched, time.Second)

	src := net.Node("A")
	for i := 0; i < 20; i++ {
		i := i
		postAt(sched, time.Duration(i)*10*time.Millisecond, func() {
			src.Inject(packet.New(packet.FlowID{Edge: "A", Local: 0}, "B", int64(i), 0))
		})
	}
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	c.Sweep(net.Now())

	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("clean run produced violations: %v", vs)
	}
	if c.Sweeps() < 10 {
		t.Fatalf("Sweeps() = %d, want >= 10 (periodic sweeps + final)", c.Sweeps())
	}
	if c.Checks() == 0 {
		t.Fatal("Checks() = 0, want > 0")
	}
}

func TestSweepCatchesMidFlight(t *testing.T) {
	// A sweep taken while packets are propagating must still balance:
	// in-flight packets account for the injected-minus-delivered gap.
	net, sched := buildPair(t)
	c := New(Config{Every: -1})
	c.Attach(net)
	src := net.Node("A")
	postAt(sched, 0, func() {
		for i := 0; i < 5; i++ {
			src.Inject(packet.New(packet.FlowID{Edge: "A", Local: 0}, "B", int64(i), 0))
		}
	})
	// 1000B at 8000 bps = 1s service each; stop mid-transfer.
	postAt(sched, 1500*time.Millisecond, func() { c.Sweep(sched.Now()) })
	if err := sched.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("mid-flight sweep produced violations: %v", vs)
	}
	st := net.Stats()
	if st.Delivered == st.Injected {
		t.Fatal("test expected packets still in flight at sweep time")
	}
}

func TestCheckFairnessTolerance(t *testing.T) {
	c := New(Config{FairnessTol: 0.10})
	c.CheckFairness(5*time.Second, []FlowRate{
		{Index: 1, Expected: 100, Measured: 95},  // 5% — within
		{Index: 2, Expected: 100, Measured: 80},  // 20% — violation
		{Index: 3, Expected: 0, Measured: 50},    // no oracle rate — skipped
		{Index: 4, Expected: 100, Measured: 111}, // 11% over — violation
	})
	vs := c.Violations()
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	if vs[0].Rule != RuleFairness || vs[0].Site != "flow 2" {
		t.Errorf("first violation = %v, want fairness at flow 2", vs[0])
	}
	if vs[1].Site != "flow 4" {
		t.Errorf("second violation = %v, want flow 4", vs[1])
	}
	if !strings.Contains(vs[0].String(), "fairness") || !strings.Contains(vs[0].String(), "flow 2") {
		t.Errorf("String() = %q, want rule and site", vs[0].String())
	}
}

func TestMaxViolationsCap(t *testing.T) {
	c := New(Config{MaxViolations: 3})
	rates := make([]FlowRate, 10)
	for i := range rates {
		rates[i] = FlowRate{Index: i, Expected: 100, Measured: 1}
	}
	c.CheckFairness(0, rates)
	if got := len(c.Violations()); got != 3 {
		t.Fatalf("retained %d violations, want cap 3", got)
	}
	if c.Overflow() != 7 {
		t.Fatalf("Overflow() = %d, want 7", c.Overflow())
	}
}

func TestRuleStrings(t *testing.T) {
	rules := []Rule{RulePacketConservation, RuleByteConservation, RuleLinkAccounting,
		RuleQueueBounds, RuleMarkerAccounting, RuleFairness}
	seen := make(map[string]bool)
	for _, r := range rules {
		s := r.String()
		if s == "" || strings.HasPrefix(s, "rule(") {
			t.Errorf("Rule(%d).String() = %q, want a name", int(r), s)
		}
		if seen[s] {
			t.Errorf("duplicate rule name %q", s)
		}
		seen[s] = true
	}
	if got := Rule(99).String(); got != "rule(99)" {
		t.Errorf("unknown rule String() = %q", got)
	}
}

// postAt runs fn at time t on s, through a handler registered for it.
func postAt(s *sim.Scheduler, t time.Duration, fn func()) {
	s.PostHandlerAt(t, s.RegisterHandler(func(uint32) { fn() }), 0)
}
