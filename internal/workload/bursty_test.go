package workload

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestOnOffDutyCycle(t *testing.T) {
	s := sim.NewScheduler()
	count := int64(0)
	oo := NewOnOff(s, sim.NewRNG(7), OnOffConfig{
		Flow:    packet.FlowID{Edge: "X", Local: 0},
		Dst:     "D",
		Rate:    200,
		MeanOn:  500 * time.Millisecond,
		MeanOff: 500 * time.Millisecond,
		Inject:  func(*packet.Packet) { count++ },
	})
	oo.Start()
	if err := s.Run(200 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	oo.Stop()
	// Expect ~100 pkt/s average over 200s = 20000, generous tolerance for
	// the exponential phases.
	if count < 17000 || count > 23000 {
		t.Errorf("on/off emitted %d in 200s, want ~20000", count)
	}
	if oo.seq != count {
		t.Errorf("sent %d, want %d", oo.seq, count)
	}
}

func TestOnOffStopCancels(t *testing.T) {
	s := sim.NewScheduler()
	count := 0
	oo := NewOnOff(s, sim.NewRNG(7), OnOffConfig{
		Flow:   packet.FlowID{Edge: "X", Local: 0},
		Dst:    "D",
		Rate:   100,
		MeanOn: time.Second, MeanOff: time.Second,
		Inject: func(*packet.Packet) { count++ },
	})
	oo.Start()
	postAt(s, 5*time.Second, func() { oo.Stop() })
	if err := s.Run(20 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Len() != 0 {
		t.Errorf("%d events still pending after Stop", s.Len())
	}
	if count == 0 {
		t.Error("no packets before Stop")
	}
}

func TestOnOffDoubleStartIdempotent(t *testing.T) {
	s := sim.NewScheduler()
	count := 0
	oo := NewOnOff(s, sim.NewRNG(7), OnOffConfig{
		Flow:   packet.FlowID{Edge: "X", Local: 0},
		Dst:    "D",
		Rate:   10,
		MeanOn: time.Hour, // effectively always on
		Inject: func(*packet.Packet) { count++ },
	})
	oo.Start()
	oo.Start() // second Start must not double the emission chain
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	oo.Stop()
	if count > 12 {
		t.Errorf("emitted %d in 1s at 10/s; double Start duplicated emission", count)
	}
}

func TestEpochPhase(t *testing.T) {
	epoch := 100 * time.Millisecond
	// Explicit offsets are taken modulo the epoch.
	if got := EpochPhase(250*time.Millisecond, epoch, "n"); got != 50*time.Millisecond {
		t.Errorf("EpochPhase(250ms) = %v, want 50ms", got)
	}
	if got := EpochPhase(-30*time.Millisecond, epoch, "n"); got != 70*time.Millisecond {
		t.Errorf("EpochPhase(-30ms) = %v, want 70ms", got)
	}
	// Zero derives from the name, deterministically, within [0, epoch).
	a := EpochPhase(0, epoch, "C1")
	b := EpochPhase(0, epoch, "C1")
	c := EpochPhase(0, epoch, "C2")
	if a != b {
		t.Error("derived phase not deterministic")
	}
	if a < 0 || a >= epoch {
		t.Errorf("derived phase %v outside [0, epoch)", a)
	}
	if a == c {
		t.Log("C1 and C2 derived the same phase (possible but unlikely)")
	}
	if got := EpochPhase(0, 0, "x"); got != 0 {
		t.Errorf("EpochPhase with zero epoch = %v, want 0", got)
	}
}
