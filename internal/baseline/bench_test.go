package baseline

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// BenchmarkRED measures RED admission with a mid-range average.
func BenchmarkRED(b *testing.B) {
	s := sim.NewScheduler()
	q := NewRED(DefaultREDConfig(64, time.Millisecond), s.Now, sim.NewRNG(1))
	p := packet.New(packet.FlowID{}, "D", 0, 0)
	for i := 0; i < 20; i++ {
		q.Enqueue(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q.Enqueue(p) {
			q.Dequeue()
		}
	}
}

// BenchmarkFRED measures FRED admission with a handful of active flows.
func BenchmarkFRED(b *testing.B) {
	s := sim.NewScheduler()
	q := NewFRED(DefaultFREDConfig(64, time.Millisecond), s.Now, sim.NewRNG(1))
	flows := make([]*packet.Packet, 8)
	for i := range flows {
		flows[i] = packet.New(packet.FlowID{Edge: "e", Local: i}, "D", 0, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q.Enqueue(flows[i%len(flows)]) {
			if i%2 == 1 {
				q.Dequeue()
			}
		}
	}
}
