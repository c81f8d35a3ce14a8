package workload

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// newTestShaper returns a shaped pacer whose releases are recorded with
// their times.
func newTestShaper(s *sim.Scheduler, capacity int) (*Pacer, *[]*packet.Packet, *[]time.Duration) {
	var got []*packet.Packet
	var at []time.Duration
	sh := NewPacer(s, PacerConfig{
		Shaped:   true,
		Capacity: capacity,
		Inject:   func(p *packet.Packet) { got = append(got, p); at = append(at, s.Now()) },
	})
	return sh, &got, &at
}

// countDrops counts the packets the pacer hands its OnDrop hook.
func countDrops(sh *Pacer) *int {
	n := 0
	sh.OnDrop = func(*packet.Packet) { n++ }
	return &n
}

func offerN(sh *Pacer, n int) int {
	accepted := 0
	for i := 0; i < n; i++ {
		p := packet.New(packet.FlowID{Edge: "E", Local: 0}, "D", int64(i), 0)
		if sh.Offer(p) {
			accepted++
		}
	}
	return accepted
}

func TestShaperReleasesAtRate(t *testing.T) {
	s := sim.NewScheduler()
	sh, got, at := newTestShaper(s, 64)
	dropped := countDrops(sh)
	sh.Start(10) // 100ms spacing
	if offerN(sh, 5) != 5 {
		t.Fatal("offers rejected with room in the queue")
	}
	drain(s)
	if len(*got) != 5 {
		t.Fatalf("released %d, want 5", len(*got))
	}
	for i, ts := range *at {
		if want := time.Duration(i) * 100 * time.Millisecond; ts != want {
			t.Errorf("release %d at %v, want %v", i, ts, want)
		}
	}
	if sh.sent != 5 || *dropped != 0 {
		t.Errorf("Sent=%d Dropped=%d", sh.sent, *dropped)
	}
	if sh.rate != 10 || !sh.Active() {
		t.Errorf("Rate=%v Active=%v", sh.rate, sh.Active())
	}
}

func TestShaperDropsOnOverflow(t *testing.T) {
	s := sim.NewScheduler()
	sh, _, _ := newTestShaper(s, 3)
	var policed []*packet.Packet
	sh.OnDrop = func(p *packet.Packet) { policed = append(policed, p) }
	sh.Start(1)
	accepted := offerN(sh, 10)
	// The t=0 release is an event that has not fired yet, so exactly the
	// queue capacity is admitted.
	if accepted != 3 {
		t.Errorf("accepted %d of 10 into capacity-3 queue, want 3", accepted)
	}
	if len(policed) != 7 {
		t.Errorf("OnDrop saw %d packets, want 7", len(policed))
	}
	if len(sh.queue) != 3 {
		t.Errorf("QueueLen = %d, want 3", len(sh.queue))
	}
}

func TestShaperOfferWhileStopped(t *testing.T) {
	s := sim.NewScheduler()
	sh, got, _ := newTestShaper(s, 8)
	dropped := countDrops(sh)
	if offerN(sh, 2) != 0 {
		t.Error("stopped shaper accepted packets")
	}
	if *dropped != 2 {
		t.Errorf("Dropped = %d, want 2", *dropped)
	}
	if len(*got) != 0 {
		t.Error("stopped shaper released packets")
	}
}

func TestShaperStopDiscardsBacklog(t *testing.T) {
	s := sim.NewScheduler()
	sh, got, _ := newTestShaper(s, 8)
	dropped := countDrops(sh)
	sh.Start(1)
	offerN(sh, 4)
	s.Step() // release the head packet
	sh.Stop()
	drain(s)
	if len(*got) != 1 {
		t.Errorf("released %d after Stop, want 1", len(*got))
	}
	if len(sh.queue) != 0 {
		t.Errorf("QueueLen after Stop = %d, want 0 (backlog discarded)", len(sh.queue))
	}
	if *dropped != 3 {
		t.Errorf("Dropped = %d, want 3 discarded backlog packets", *dropped)
	}
}

func TestShaperRateChangeTakesEffect(t *testing.T) {
	s := sim.NewScheduler()
	sh, got, at := newTestShaper(s, 64)
	sh.Start(1) // 1 pkt/s
	offerN(sh, 3)
	postAt(s, 100*time.Millisecond, func() { sh.SetRate(100) })
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 3 {
		t.Fatalf("released %d, want 3", len(*got))
	}
	// First at t=0; after the speed-up the rest drain at 10ms spacing.
	if (*at)[1] > 150*time.Millisecond || (*at)[2] > 200*time.Millisecond {
		t.Errorf("releases after rate increase at %v, want ~110/120ms", (*at)[1:])
	}
}

func TestShaperZeroRatePauses(t *testing.T) {
	s := sim.NewScheduler()
	sh, got, _ := newTestShaper(s, 8)
	sh.Start(10)
	offerN(sh, 3)
	s.Step() // t=0 release
	sh.SetRate(0)
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("released %d while paused, want 1", len(*got))
	}
	sh.SetRate(10)
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 3 {
		t.Errorf("released %d after resume, want 3", len(*got))
	}
}

func TestShaperDecorateAtRelease(t *testing.T) {
	s := sim.NewScheduler()
	sh, got, _ := newTestShaper(s, 8)
	stamp := 1.0
	sh.Decorate = func(p *packet.Packet) { p.Label = stamp }
	sh.Start(10)
	offerN(sh, 2)
	s.Step() // first release with stamp 1
	stamp = 2.0
	drain(s)
	if (*got)[0].Label != 1 || (*got)[1].Label != 2 {
		t.Errorf("labels = %v, %v; want decoration at release time (1, 2)",
			(*got)[0].Label, (*got)[1].Label)
	}
}

func TestShaperDefaultCapacity(t *testing.T) {
	s := sim.NewScheduler()
	sh := NewPacer(s, PacerConfig{Shaped: true, Inject: func(*packet.Packet) {}})
	sh.Start(0.0001) // effectively frozen
	if got := offerN(sh, 100); got != 64 {
		t.Errorf("default capacity admitted %d, want 64", got)
	}
}
