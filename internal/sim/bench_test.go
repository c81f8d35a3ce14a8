package sim

import (
	"fmt"
	"testing"
	"time"
)

// benchBatch is how many events one benchmark op runs. An op is a batch, not
// a single event, so the numbers mean something at the -benchtime 1x the CI
// smoke runs.
const benchBatch = 1 << 17

// stepBatches runs b.N batches of events on a warm scheduler and reports
// throughput in Mevents/s.
func stepBatches(b *testing.B, s *Scheduler) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N*benchBatch; i++ {
		s.Step()
	}
	b.ReportMetric(float64(b.N)*benchBatch/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkSchedulerChain measures pure event throughput: one handler
// reposting itself, the queue never deeper than one.
func BenchmarkSchedulerChain(b *testing.B) {
	s := NewScheduler()
	var hid HandlerID
	hid = s.RegisterHandler(func(arg uint32) { s.PostHandler(time.Microsecond, hid, arg) })
	s.PostHandler(time.Microsecond, hid, 0)
	stepBatches(b, s)
}

// BenchmarkSchedulerFanout measures the queue under load: pending
// self-reposting registered handlers with exponential gaps (mean 1 ms), the
// shape of the repository benchmark's sim.queue_ns_per_event_p64/p4096.
func BenchmarkSchedulerFanout(b *testing.B) {
	for _, pending := range []int{64, 4096} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			s := fanoutScheduler(pending, time.Millisecond)
			for i := 0; i < benchBatch/2; i++ { // reach the steady-state queue shape
				s.Step()
			}
			stepBatches(b, s)
		})
	}
}

// BenchmarkCancelHeavy measures lazy cancellation: each op schedules a batch
// of handles, cancels every other one, and drains — paying for surfacing and
// discarding the stale entries along with firing the rest.
func BenchmarkCancelHeavy(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		for i := 0; i < benchBatch; i++ {
			e := s.MustAfter(time.Duration(i)*time.Microsecond, fn)
			if i%2 == 0 {
				e.Cancel()
			}
		}
		if err := s.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*benchBatch/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkTickerRearm measures the periodic-handle shape of the router and
// edge epochs and the samplers: 64 tickers, each firing and re-arming its
// own Event every 100 ms.
func BenchmarkTickerRearm(b *testing.B) {
	s := NewScheduler()
	for i := 0; i < 64; i++ {
		s.MustAfter(time.Duration(i)*time.Millisecond, func() { s.RescheduleAfter(100 * time.Millisecond) })
	}
	stepBatches(b, s)
}

// BenchmarkRNGStream measures derived-stream draws.
func BenchmarkRNGStream(b *testing.B) {
	r := NewRNG(1).Stream("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}
