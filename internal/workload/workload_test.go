package workload

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// newTestSource returns a minted pacer whose releases are recorded with
// their times.
func newTestSource(s *sim.Scheduler) (*Pacer, *[]*packet.Packet, *[]time.Duration) {
	var got []*packet.Packet
	var at []time.Duration
	src := NewPacer(s, PacerConfig{
		Flow:   packet.FlowID{Edge: "E1", Local: 1},
		Dst:    "sink",
		Inject: func(p *packet.Packet) { got = append(got, p); at = append(at, s.Now()) },
	})
	return src, &got, &at
}

func TestSourceEmitsAtRate(t *testing.T) {
	s := sim.NewScheduler()
	src, got, at := newTestSource(s)
	src.Start(10) // 10 pkt/s -> 100ms spacing, first immediately
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	src.Stop()
	// Emissions at 0, 100ms, ..., 1000ms = 11 packets.
	if len(*got) != 11 {
		t.Fatalf("emitted %d packets in 1s at 10pkt/s, want 11", len(*got))
	}
	for i, ts := range *at {
		if want := time.Duration(i) * 100 * time.Millisecond; ts != want {
			t.Errorf("packet %d at %v, want %v", i, ts, want)
		}
	}
	// Sequence numbers are consecutive.
	for i, p := range *got {
		if p.Seq != int64(i) {
			t.Errorf("packet %d has seq %d", i, p.Seq)
		}
	}
}

func TestSourceNeverExceedsRate(t *testing.T) {
	// Property: however the rate is modulated, the number of packets in
	// any window [0, T] never exceeds 1 + ∫rate dt (token bucket of depth
	// one).
	s := sim.NewScheduler()
	src, got, _ := newTestSource(s)
	src.Start(100)
	rates := []float64{50, 200, 10, 400}
	for i, r := range rates {
		r := r
		postAt(s, time.Duration(i+1)*200*time.Millisecond, func() { src.SetRate(r) })
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Integral: 100*0.2 + 50*0.2 + 200*0.2 + 10*0.2 + 400*0.2 = 152; plus
	// one token of slack for the packet in flight at each boundary.
	budget := 152.0
	if float64(len(*got)) > budget+2 {
		t.Errorf("emitted %d packets, budget %v", len(*got), budget)
	}
	if len(*got) < 130 {
		t.Errorf("emitted %d packets, suspiciously few", len(*got))
	}
}

func TestSourceRateIncreaseTakesEffectPromptly(t *testing.T) {
	s := sim.NewScheduler()
	src, got, _ := newTestSource(s)
	src.Start(1) // 1 pkt/s
	postAt(s, 100*time.Millisecond, func() { src.SetRate(100) })
	if err := s.Run(500 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Without rescheduling, the second packet would wait until t=1s; with
	// the token-bucket model it arrives at max(now, 0+10ms) = 100ms and
	// then every 10ms.
	if len(*got) < 40 {
		t.Errorf("emitted %d packets in 0.5s after rate increase, want ~41", len(*got))
	}
}

func TestSourceZeroRatePausesAndResumes(t *testing.T) {
	s := sim.NewScheduler()
	src, got, _ := newTestSource(s)
	src.Start(10)
	postAt(s, 250*time.Millisecond, func() { src.SetRate(0) })
	postAt(s, 700*time.Millisecond, func() { src.SetRate(10) })
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Emissions at 0,100,200 then paused; resume at 700 (lastEmit 200 +
	// 100ms < now, so immediately), 800, 900, 1000.
	if len(*got) != 7 {
		t.Errorf("emitted %d packets, want 7", len(*got))
	}
}

func TestSourceStopCancelsEmission(t *testing.T) {
	s := sim.NewScheduler()
	src, got, _ := newTestSource(s)
	src.Start(10)
	postAt(s, 250*time.Millisecond, func() { src.Stop() })
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(*got) != 3 {
		t.Errorf("emitted %d packets, want 3 (0,100,200ms)", len(*got))
	}
	if src.Active() {
		t.Error("source still active after Stop")
	}
}

func TestSourceDecorate(t *testing.T) {
	s := sim.NewScheduler()
	src, got, _ := newTestSource(s)
	src.Decorate = func(p *packet.Packet) { p.Label = 42 }
	src.Start(10)
	if err := s.Run(100 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(*got) == 0 {
		t.Fatal("no packets emitted")
	}
	for _, p := range *got {
		if p.Label != 42 {
			t.Errorf("packet label = %v, want decorated 42", p.Label)
		}
	}
}

func TestSourceDefaultSize(t *testing.T) {
	s := sim.NewScheduler()
	src, got, _ := newTestSource(s)
	src.Start(10)
	s.Step()
	src.Stop()
	if len(*got) != 1 || (*got)[0].SizeBytes != packet.DefaultSizeBytes {
		t.Errorf("default packet size not applied: %+v", *got)
	}
}

func TestScheduleActiveAt(t *testing.T) {
	dur := 100 * time.Second
	tests := []struct {
		name string
		s    Schedule
		t    time.Duration
		want bool
	}{
		{"always start", Always(), 0, true},
		{"always end", Always(), 99 * time.Second, true},
		{"window inside", Window(10*time.Second, 20*time.Second), 15 * time.Second, true},
		{"window before", Window(10*time.Second, 20*time.Second), 5 * time.Second, false},
		{"window at stop", Window(10*time.Second, 20*time.Second), 20 * time.Second, false},
		{"open-ended", Schedule{{Start: 50 * time.Second}}, 80 * time.Second, true},
		{"two windows gap", Schedule{{Start: 0, Stop: 10 * time.Second}, {Start: 20 * time.Second, Stop: 30 * time.Second}}, 15 * time.Second, false},
		{"two windows second", Schedule{{Start: 0, Stop: 10 * time.Second}, {Start: 20 * time.Second, Stop: 30 * time.Second}}, 25 * time.Second, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.s.ActiveAt(tt.t, dur); got != tt.want {
				t.Errorf("ActiveAt(%v) = %v, want %v", tt.t, got, tt.want)
			}
		})
	}
}

// drain runs s until no event is left.
func drain(s *sim.Scheduler) {
	for s.Step() {
	}
}

// postAt runs fn at time t on s, through a handler registered for it.
func postAt(s *sim.Scheduler, t time.Duration, fn func()) {
	s.PostHandlerAt(t, s.RegisterHandler(func(uint32) { fn() }), 0)
}
