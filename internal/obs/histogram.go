package obs

import (
	"math"
)

// Log-bucketed histogram geometry. Buckets are indexed by the value's
// binary exponent (math.Frexp) and a linear sub-bucket within each octave,
// HDR-histogram style: bucket (e, j) covers
//
//	[2^(e-1)·(1 + j/histSub), 2^(e-1)·(1 + (j+1)/histSub))
//
// so the relative width of any bucket is at most 1/histSub (6.25%), which
// bounds the quantile estimation error. The exponent range covers values
// from ~1e-12 to ~1e9 — ample for the layer's use cases (seconds-scale
// delays and solve times); values outside clamp into the edge buckets and
// the exact Min/Max are tracked separately.
const (
	histSub    = 16
	histExpMin = -40 // smallest representable lower bound ≈ 9.1e-13
	histExpMax = 31  // largest upper bound ≈ 2.1e9
	histBucket = (histExpMax - histExpMin) * histSub
)

// histIndex maps a positive value to its bucket index, clamped to the
// supported range.
func histIndex(v float64) int {
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	if exp < histExpMin {
		return 0
	}
	if exp >= histExpMax {
		return histBucket - 1
	}
	j := int((frac*2 - 1) * histSub)
	if j >= histSub { // guard against frac rounding up to 1.0
		j = histSub - 1
	}
	return (exp-histExpMin)*histSub + j
}

// histBounds returns bucket i's half-open value range.
func histBounds(i int) (lo, hi float64) {
	e := histExpMin + i/histSub
	j := i % histSub
	base := math.Ldexp(1, e-1) // 2^(e-1)
	return base * (1 + float64(float64(j)/histSub)), base * (1 + float64(float64(j+1)/histSub))
}

// Histogram is a named log-bucketed distribution of float64 observations
// (HDR-style: geometric octaves split into linear sub-buckets, ≤6.25%
// relative quantile error). Like Counter and Gauge, the nil Histogram that
// a nil Registry hands out accepts Observe as a no-op, so producers need no
// enabled/disabled branching. Observations are wall-clock-side instruments
// (durations, solve times): recording one never touches simulation state.
type Histogram struct {
	name string
	unit string

	counts    [histBucket]uint64
	underflow uint64 // observations ≤ 0 (still counted in count/sum)
	count     uint64
	sum       float64
	min, max  float64
}

// Name reports the histogram's registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Observe records one value. No-op on a nil receiver. Non-positive and
// non-finite values land in a dedicated underflow bucket so a stray zero
// cannot skew the bucketed quantiles.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		h.underflow++
		return
	}
	h.counts[histIndex(v)]++
}

// Count reports the number of observations (0 for a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min reports the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile (q in [0, 1]) from the buckets: the
// midpoint of the bucket containing the target rank, clamped to the exact
// observed [Min, Max]. Returns 0 when empty. Estimation error is bounded by
// the bucket's relative width (≤6.25%).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// Rank among the recorded observations, 1-based: ceil(q·count).
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank <= h.underflow {
		return h.min
	}
	seen := h.underflow
	for i := range h.counts {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			lo, hi := histBounds(i)
			mid := (lo + hi) / 2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// Buckets invokes fn for every non-empty bucket in ascending value order
// with the bucket's bounds and count. The underflow bucket (values ≤ 0)
// reports bounds (0, 0).
func (h *Histogram) Buckets(fn func(lo, hi float64, count uint64)) {
	if h == nil {
		return
	}
	if h.underflow > 0 {
		fn(0, 0, h.underflow)
	}
	for i := range h.counts {
		if c := h.counts[i]; c > 0 {
			lo, hi := histBounds(i)
			fn(lo, hi, c)
		}
	}
}
