package adapt

import (
	"testing"
	"time"
)

func advance(c *Controller, from time.Duration, epochs int, epoch time.Duration, indications float64) time.Duration {
	now := from
	for i := 0; i < epochs; i++ {
		now += epoch
		c.OnEpoch(now, indications)
	}
	return now
}

func TestSlowStartDoubling(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Start(0)
	if c.Rate() != 1 {
		t.Fatalf("initial rate = %v, want 1", c.Rate())
	}
	if c.Phase() != PhaseSlowStart {
		t.Fatalf("initial phase = %v, want slow-start", c.Phase())
	}
	epoch := 100 * time.Millisecond
	now := advance(c, 0, 10, epoch, 0) // reach t=1s: one doubling
	if c.Rate() != 2 {
		t.Errorf("rate after 1s = %v, want 2", c.Rate())
	}
	// Keep doubling: 4, 8, 16, 32 at t=2..5s; at t=6s the doubled rate 64
	// exceeds ss-thresh, is halved back to 32, and the phase flips.
	now = advance(c, now, 50, epoch, 0)
	if c.Rate() != 32+float64(0) && c.Phase() != PhaseLinear {
		t.Errorf("rate = %v phase = %v", c.Rate(), c.Phase())
	}
	if c.Phase() != PhaseLinear {
		t.Errorf("phase after exceeding ss-thresh = %v, want linear", c.Phase())
	}
	_ = now
}

func TestSlowStartExitRateNeverExceedsThreshold(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Start(0)
	epoch := 100 * time.Millisecond
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += epoch
		c.OnEpoch(now, 0)
		if c.Phase() == PhaseSlowStart && c.Rate() > 32 {
			t.Fatalf("slow-start rate %v exceeded ss-thresh", c.Rate())
		}
		if c.Phase() == PhaseLinear {
			break
		}
	}
	if c.Phase() != PhaseLinear {
		t.Fatal("never exited slow-start")
	}
	if c.Rate() != 32 {
		t.Errorf("slow-start exit rate = %v, want 32", c.Rate())
	}
}

func TestCongestionDuringSlowStartHalves(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Start(0)
	epoch := 100 * time.Millisecond
	now := advance(c, 0, 30, epoch, 0) // t=3s: rate 8
	if c.Rate() != 8 {
		t.Fatalf("rate before congestion = %v, want 8", c.Rate())
	}
	c.OnEpoch(now+epoch, 3)
	if c.Rate() != 4 {
		t.Errorf("rate after first notification = %v, want 4 (halved)", c.Rate())
	}
	if c.Phase() != PhaseLinear {
		t.Errorf("phase = %v, want linear", c.Phase())
	}
}

func TestLinearIncreaseAndProportionalDecrease(t *testing.T) {
	cfg := DefaultConfig()
	c := NewController(cfg)
	c.Start(0)
	// Force linear phase via a notification.
	c.OnEpoch(100*time.Millisecond, 1)
	base := c.Rate()
	c.OnEpoch(200*time.Millisecond, 0)
	if c.Rate() != base+1 {
		t.Errorf("linear increase: rate = %v, want %v", c.Rate(), base+1)
	}
	c.OnEpoch(300*time.Millisecond, 5)
	want := base + 1 - 5
	if want < 0 {
		want = 0
	}
	if c.Rate() != want {
		t.Errorf("decrease by 5 indications: rate = %v, want %v", c.Rate(), want)
	}
}

func TestRateFloorsAtZeroAndRecovers(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Start(0)
	// First notification in slow-start only halves; once linear, massive
	// feedback floors the rate at zero.
	c.OnEpoch(100*time.Millisecond, 1)
	c.OnEpoch(200*time.Millisecond, 1000)
	if c.Rate() != 0 {
		t.Fatalf("rate after massive feedback = %v, want 0", c.Rate())
	}
	c.OnEpoch(300*time.Millisecond, 0)
	if c.Rate() != 1 {
		t.Errorf("rate after quiet epoch = %v, want 1 (linear recovery)", c.Rate())
	}
}

func TestMaxRateCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRate = 10
	c := NewController(cfg)
	c.Start(0)
	advance(c, 0, 100, 100*time.Millisecond, 0)
	if c.Rate() > 10 {
		t.Errorf("rate = %v exceeds MaxRate 10", c.Rate())
	}
}

func TestStopAndRestart(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Start(0)
	advance(c, 0, 30, 100*time.Millisecond, 0)
	c.Stop()
	if c.Rate() != 0 {
		t.Fatalf("rate after Stop = %v, want 0", c.Rate())
	}
	// OnEpoch while stopped is a no-op.
	c.OnEpoch(10*time.Second, 0)
	if c.Rate() != 0 {
		t.Errorf("stopped controller changed rate to %v", c.Rate())
	}
	c.Start(20 * time.Second)
	if c.Rate() != 1 || c.Phase() != PhaseSlowStart {
		t.Errorf("restart: rate=%v phase=%v, want 1, slow-start", c.Rate(), c.Phase())
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	c := NewController(Config{})
	c.Start(0)
	if c.Rate() != 1 {
		t.Errorf("zero-config initial rate = %v, want defaulted 1", c.Rate())
	}
}

func TestWeightedDecreaseIsMultiplicative(t *testing.T) {
	// The paper's key claim (§2.2): because m(f) ∝ b_g/w, feedback
	// produces a multiplicative decrease. Emulate two flows with weights 1
	// and 2 receiving feedback proportional to their normalized rates and
	// verify their normalized rates converge toward one another.
	w1, w2 := 1.0, 2.0
	c1 := NewController(DefaultConfig())
	c2 := NewController(DefaultConfig())
	c1.Start(0)
	c2.Start(0)
	// Skip slow start.
	c1.OnEpoch(0, 1)
	c2.OnEpoch(0, 1)
	// Give them very different starting rates.
	for c1.Rate() < 90 {
		c1.OnEpoch(0, 0)
	}
	k := 0.05 // feedback per unit of normalized rate when congested
	now := time.Duration(0)
	for i := 0; i < 2000; i++ {
		now += 100 * time.Millisecond
		total := c1.Rate() + c2.Rate()
		congested := total > 120
		var f1, f2 float64
		if congested {
			f1 = k * c1.Rate() / w1
			f2 = k * c2.Rate() / w2
		}
		c1.OnEpoch(now, f1)
		c2.OnEpoch(now, f2)
	}
	n1 := c1.Rate() / w1
	n2 := c2.Rate() / w2
	if n1 <= 0 || n2 <= 0 {
		t.Fatalf("rates collapsed: %v %v", c1.Rate(), c2.Rate())
	}
	ratio := n1 / n2
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("normalized rates did not converge: %v vs %v (ratio %.2f)", n1, n2, ratio)
	}
}

func TestApplyIndicationsImmediate(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Start(0)
	// Zero or negative indications are no-ops.
	if got := c.ApplyIndications(0); got != 1 {
		t.Errorf("ApplyIndications(0) changed rate to %v", got)
	}
	// First indication in slow start halves and flips phase.
	advance(c, 0, 30, 100*time.Millisecond, 0) // rate 8 at t=3s
	if got := c.ApplyIndications(2); got != 4 {
		t.Errorf("slow-start immediate indication: rate = %v, want 4", got)
	}
	if c.Phase() != PhaseLinear {
		t.Errorf("phase = %v, want linear", c.Phase())
	}
	// Linear: each indication subtracts beta.
	if got := c.ApplyIndications(3); got != 1 {
		t.Errorf("linear immediate indications: rate = %v, want 1", got)
	}
	// Floors at zero.
	if got := c.ApplyIndications(100); got != 0 {
		t.Errorf("rate = %v, want floored 0", got)
	}
	// Stopped controller ignores indications.
	c.Stop()
	if got := c.ApplyIndications(1); got != 0 {
		t.Errorf("stopped ApplyIndications = %v", got)
	}
}

func TestApplyIndicationsRespectsMinRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinRate = 50
	cfg.InitialRate = 80
	c := NewController(cfg)
	c.Start(0)
	c.ApplyIndications(1) // halve 80 -> 40, clamped to 50
	if c.Rate() != 50 {
		t.Errorf("rate = %v, want clamped to contract 50", c.Rate())
	}
	c.ApplyIndications(1000)
	if c.Rate() != 50 {
		t.Errorf("rate after massive feedback = %v, want contract floor 50", c.Rate())
	}
}

func TestTickEpoch(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Start(0)
	c.OnEpoch(0, 1) // go linear at 0.5
	base := c.Rate()
	// Epoch with feedback already applied: no growth.
	if got := c.TickEpoch(100*time.Millisecond, true); got != base {
		t.Errorf("TickEpoch(hadFeedback) = %v, want unchanged %v", got, base)
	}
	// Quiet epoch: +alpha.
	if got := c.TickEpoch(200*time.Millisecond, false); got != base+1 {
		t.Errorf("TickEpoch(quiet) = %v, want %v", got, base+1)
	}
}

func TestStartRespectsMinRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinRate = 25
	c := NewController(cfg)
	c.Start(0)
	if c.Rate() != 25 {
		t.Errorf("start rate = %v, want contract 25", c.Rate())
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseSlowStart.String() != "slow-start" || PhaseLinear.String() != "linear" {
		t.Error("phase strings wrong")
	}
	if Phase(0).String() != "unknown" {
		t.Error("zero phase string wrong")
	}
}
