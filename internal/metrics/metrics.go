// Package metrics measures the quantities the paper's figures report:
// per-flow instantaneous ("alloted") rate over fixed windows, cumulative
// service, packet losses, Jain's fairness index over normalized rates, and
// convergence times against an analytical expectation.
package metrics

import (
	"math"
	"sort"
	"time"

	"repro/internal/packet"
)

// Sample is one point of a time series.
type Sample struct {
	// At is the end of the measurement window.
	At time.Duration
	// Value is the measured quantity (rate in packets/second for rate
	// series, packets for cumulative series).
	Value float64
}

// Series is an ordered list of samples.
type Series []Sample

// ValueAt returns the value of the sample covering time t (the last sample
// with At <= t), and false when t precedes the first sample.
func (s Series) ValueAt(t time.Duration) (float64, bool) {
	idx := sort.Search(len(s), func(i int) bool { return s[i].At > t })
	if idx == 0 {
		return 0, false
	}
	return s[idx-1].Value, true
}

// Final returns the last sample value, or 0 for an empty series.
func (s Series) Final() float64 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].Value
}

// MeanOver averages sample values with At in (from, to].
func (s Series) MeanOver(from, to time.Duration) float64 {
	sum, n := 0.0, 0
	for _, p := range s {
		if p.At > from && p.At <= to {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FlowRecorder tracks per-flow delivery at the egress and produces the
// figures' series: windowed receive rate ("alloted rate" in the paper's
// plots) and cumulative packets delivered.
type FlowRecorder struct {
	window time.Duration

	flows map[packet.FlowID]*flowState
	order []packet.FlowID
}

type flowState struct {
	windowCount int64
	total       int64
	lastFlush   time.Duration
	rate        Series
	cumulative  Series
	losses      int64
}

// NewFlowRecorder returns a recorder that aggregates delivery counts into
// windows of the given size (the paper's plots use 1-second bins).
func NewFlowRecorder(window time.Duration) *FlowRecorder {
	if window <= 0 {
		window = time.Second
	}
	return &FlowRecorder{window: window, flows: make(map[packet.FlowID]*flowState)}
}

func (r *FlowRecorder) state(f packet.FlowID) *flowState {
	st, ok := r.flows[f]
	if !ok {
		st = &flowState{}
		r.flows[f] = st
		r.order = append(r.order, f)
	}
	return st
}

// Deliver records a packet of flow f received at the egress at time now.
func (r *FlowRecorder) Deliver(f packet.FlowID, now time.Duration) {
	st := r.state(f)
	st.windowCount++
	st.total++
}

// Lose records a dropped packet of flow f.
func (r *FlowRecorder) Lose(f packet.FlowID) { r.state(f).losses++ }

// Flush closes the current window at time now, appending one rate sample
// and one cumulative sample per known flow. The experiment harness calls it
// on a fixed schedule.
func (r *FlowRecorder) Flush(now time.Duration) {
	for _, f := range r.order {
		st := r.flows[f]
		elapsed := (now - st.lastFlush).Seconds()
		rate := 0.0
		if elapsed > 0 {
			rate = float64(st.windowCount) / elapsed
		}
		st.rate = append(st.rate, Sample{At: now, Value: rate})
		st.cumulative = append(st.cumulative, Sample{At: now, Value: float64(st.total)})
		st.windowCount = 0
		st.lastFlush = now
	}
}

// Rate returns the windowed receive-rate series for f (packets/second).
func (r *FlowRecorder) Rate(f packet.FlowID) Series {
	if st, ok := r.flows[f]; ok {
		out := make(Series, len(st.rate))
		copy(out, st.rate)
		return out
	}
	return nil
}

// Cumulative returns the cumulative delivered-packets series for f.
func (r *FlowRecorder) Cumulative(f packet.FlowID) Series {
	if st, ok := r.flows[f]; ok {
		out := make(Series, len(st.cumulative))
		copy(out, st.cumulative)
		return out
	}
	return nil
}

// Total reports the total packets delivered for f.
func (r *FlowRecorder) Total(f packet.FlowID) int64 {
	if st, ok := r.flows[f]; ok {
		return st.total
	}
	return 0
}

// Losses reports the packets recorded lost for f.
func (r *FlowRecorder) Losses(f packet.FlowID) int64 {
	if st, ok := r.flows[f]; ok {
		return st.losses
	}
	return 0
}

// JainIndex computes Jain's fairness index (Σx)² / (n·Σx²) of the given
// values. It is 1 for a perfectly fair vector and 1/n in the worst case.
// Applied to normalized rates b(i)/w(i), it quantifies weighted rate
// fairness. An empty or all-zero input yields 0.
func JainIndex(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += float64(v * v)
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(values)) * sumSq)
}

// ConvergenceTime reports the earliest time t such that every sample from t
// through the end of the series lies within relTol of expected — i.e. the
// moment the flow settles at its fair share and never leaves it again. It
// returns false when the series ends out of band (never converges).
func ConvergenceTime(s Series, expected float64, relTol float64) (time.Duration, bool) {
	if expected <= 0 || len(s) == 0 {
		return 0, false
	}
	within := func(v float64) bool {
		return math.Abs(v-expected) <= relTol*expected
	}
	// Walk backwards to the last out-of-band sample; convergence begins at
	// the next sample.
	for i := len(s) - 1; i >= 0; i-- {
		if !within(s[i].Value) {
			if i == len(s)-1 {
				return 0, false
			}
			return s[i+1].At, true
		}
	}
	return s[0].At, true
}
