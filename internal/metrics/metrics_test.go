package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
)

func TestFlowRecorderRateWindows(t *testing.T) {
	r := NewFlowRecorder(time.Second)
	f := packet.FlowID{Edge: "E1", Local: 1}
	// 10 packets in the first second, 20 in the second.
	for i := 0; i < 10; i++ {
		r.Deliver(f, 500*time.Millisecond)
	}
	r.Flush(time.Second)
	for i := 0; i < 20; i++ {
		r.Deliver(f, 1500*time.Millisecond)
	}
	r.Flush(2 * time.Second)

	rate := r.Rate(f)
	if len(rate) != 2 {
		t.Fatalf("rate series has %d samples, want 2", len(rate))
	}
	if rate[0].Value != 10 {
		t.Errorf("window 1 rate = %v, want 10", rate[0].Value)
	}
	if rate[1].Value != 20 {
		t.Errorf("window 2 rate = %v, want 20", rate[1].Value)
	}
	cum := r.Cumulative(f)
	if cum[1].Value != 30 {
		t.Errorf("cumulative = %v, want 30", cum[1].Value)
	}
	if r.Total(f) != 30 {
		t.Errorf("Total = %d, want 30", r.Total(f))
	}
}

func TestFlowRecorderMultipleFlowsAndLosses(t *testing.T) {
	r := NewFlowRecorder(time.Second)
	a := packet.FlowID{Edge: "E1", Local: 1}
	b := packet.FlowID{Edge: "E2", Local: 1}
	r.Deliver(a, 0)
	r.Deliver(b, 0)
	r.Deliver(b, 0)
	r.Lose(a)
	r.Lose(a)
	r.Lose(b)
	r.Flush(time.Second)
	if got := r.order; len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("flows %v, want [a b] in first-seen order", got)
	}
	if r.Losses(a) != 2 || r.Losses(b) != 1 {
		t.Errorf("losses = %d,%d want 2,1", r.Losses(a), r.Losses(b))
	}
}

func TestFlowRecorderUnknownFlow(t *testing.T) {
	r := NewFlowRecorder(time.Second)
	f := packet.FlowID{Edge: "E1", Local: 9}
	if r.Rate(f) != nil || r.Cumulative(f) != nil {
		t.Error("series for unknown flow should be nil")
	}
	if r.Total(f) != 0 || r.Losses(f) != 0 {
		t.Error("counts for unknown flow should be 0")
	}
}

func TestSeriesValueAt(t *testing.T) {
	s := Series{{At: time.Second, Value: 1}, {At: 2 * time.Second, Value: 2}, {At: 3 * time.Second, Value: 3}}
	if _, ok := s.ValueAt(500 * time.Millisecond); ok {
		t.Error("ValueAt before first sample should report false")
	}
	if v, ok := s.ValueAt(time.Second); !ok || v != 1 {
		t.Errorf("ValueAt(1s) = %v,%v want 1,true", v, ok)
	}
	if v, ok := s.ValueAt(2500 * time.Millisecond); !ok || v != 2 {
		t.Errorf("ValueAt(2.5s) = %v,%v want 2,true", v, ok)
	}
	if v, ok := s.ValueAt(time.Minute); !ok || v != 3 {
		t.Errorf("ValueAt(1m) = %v,%v want 3,true", v, ok)
	}
}

func TestSeriesMeanOverAndFinal(t *testing.T) {
	s := Series{{At: time.Second, Value: 10}, {At: 2 * time.Second, Value: 20}, {At: 3 * time.Second, Value: 60}}
	if got := s.MeanOver(time.Second, 3*time.Second); got != 40 {
		t.Errorf("MeanOver(1s,3s] = %v, want 40", got)
	}
	if got := s.MeanOver(10*time.Second, 20*time.Second); got != 0 {
		t.Errorf("MeanOver of empty range = %v, want 0", got)
	}
	if got := s.Final(); got != 60 {
		t.Errorf("Final = %v, want 60", got)
	}
	if got := (Series{}).Final(); got != 0 {
		t.Errorf("Final of empty = %v, want 0", got)
	}
}

func TestJainIndex(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"perfectly fair", []float64{5, 5, 5, 5}, 1},
		{"empty", nil, 0},
		{"all zero", []float64{0, 0}, 0},
		{"one hog", []float64{1, 0, 0, 0}, 0.25},
		{"two to one", []float64{2, 1}, 0.9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := JainIndex(tt.in)
			if math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("JainIndex(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestJainIndexBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		nonZero := false
		for i, v := range raw {
			vals[i] = float64(v)
			if v != 0 {
				nonZero = true
			}
		}
		got := JainIndex(vals)
		if !nonZero {
			return got == 0
		}
		lower := 1 / float64(len(vals))
		return got >= lower-1e-9 && got <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConvergenceTime(t *testing.T) {
	mk := func(vals ...float64) Series {
		s := make(Series, len(vals))
		for i, v := range vals {
			s[i] = Sample{At: time.Duration(i+1) * time.Second, Value: v}
		}
		return s
	}
	// Converges at sample 4 (t=4s) and stays.
	s := mk(1, 50, 80, 100, 101, 99, 100, 100)
	at, ok := ConvergenceTime(s, 100, 0.05)
	if !ok || at != 4*time.Second {
		t.Errorf("ConvergenceTime = %v,%v want 4s,true", at, ok)
	}
	// Excursion resets the clock: convergence is the last entry into band.
	s = mk(100, 100, 100, 10, 100, 100)
	at, ok = ConvergenceTime(s, 100, 0.05)
	if !ok || at != 5*time.Second {
		t.Errorf("ConvergenceTime after excursion = %v,%v want 5s,true", at, ok)
	}
	// Never converges (ends out of band).
	s = mk(1, 2, 3)
	if _, ok = ConvergenceTime(s, 100, 0.05); ok {
		t.Error("ConvergenceTime reported convergence for a diverging series")
	}
	// Ends out of band after being in band.
	s = mk(100, 100, 1)
	if _, ok = ConvergenceTime(s, 100, 0.05); ok {
		t.Error("ConvergenceTime reported convergence for a series ending out of band")
	}
	// Zero expectation is rejected.
	if _, ok = ConvergenceTime(s, 0, 0.05); ok {
		t.Error("ConvergenceTime accepted expected=0")
	}
	// In band from the very first sample.
	s = mk(100, 100)
	at, ok = ConvergenceTime(s, 100, 0.05)
	if !ok || at != time.Second {
		t.Errorf("ConvergenceTime always-in-band = %v,%v want 1s,true", at, ok)
	}
}

func TestFlushWithNoDeliveriesEmitsZeroRate(t *testing.T) {
	r := NewFlowRecorder(time.Second)
	f := packet.FlowID{Edge: "E1", Local: 1}
	r.Deliver(f, 0)
	r.Flush(time.Second)
	r.Flush(2 * time.Second) // idle window
	rate := r.Rate(f)
	if len(rate) != 2 || rate[1].Value != 0 {
		t.Errorf("idle window rate = %+v, want second sample 0", rate)
	}
}
