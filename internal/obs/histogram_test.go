package obs

import (
	"math"
	"strings"
	"testing"
)

// TestHistIndexBounds pins the bucket geometry: every in-range value must
// land in a bucket whose half-open bounds contain it, and the bucket's
// relative width must stay within the 1/histSub contract that bounds the
// quantile error.
func TestHistIndexBounds(t *testing.T) {
	values := []float64{
		1e-12, 1e-9, 1e-6, 0.001, 0.5, 0.999, 1.0, 1.5, 2.0, 3.14159,
		100, 1e6, 1e9, 0.0625, 0.03125,
	}
	for _, v := range values {
		i := histIndex(v)
		if i < 0 || i >= histBucket {
			t.Fatalf("histIndex(%g) = %d out of range", v, i)
		}
		lo, hi := histBounds(i)
		if v < lo || v >= hi {
			t.Errorf("value %g outside its bucket [%g, %g)", v, lo, hi)
		}
		if rel := (hi - lo) / lo; rel > 1.0/histSub+1e-12 {
			t.Errorf("bucket [%g, %g) relative width %g exceeds 1/%d", lo, hi, rel, histSub)
		}
	}
}

// TestHistIndexClamp checks values outside the exponent range clamp into the
// edge buckets instead of indexing out of bounds.
func TestHistIndexClamp(t *testing.T) {
	if i := histIndex(1e-300); i != 0 {
		t.Errorf("tiny value bucket = %d, want 0", i)
	}
	if i := histIndex(1e300); i != histBucket-1 {
		t.Errorf("huge value bucket = %d, want %d", i, histBucket-1)
	}
}

// TestHistBoundsContiguous verifies adjacent buckets tile the value axis
// with no gaps or overlaps: bucket i's upper bound is bucket i+1's lower.
func TestHistBoundsContiguous(t *testing.T) {
	for i := 0; i < histBucket-1; i++ {
		_, hi := histBounds(i)
		lo, _ := histBounds(i + 1)
		if hi != lo {
			t.Fatalf("gap between buckets %d and %d: %g vs %g", i, i+1, hi, lo)
		}
	}
}

// TestHistogramStats checks count/sum/min/max/mean bookkeeping including
// the underflow path for non-positive and non-finite observations.
func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.004, 0.001, 0.016} {
		h.Observe(v)
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d, want 3", h.Count())
	}
	if got := h.Sum(); math.Abs(got-0.021) > 1e-12 {
		t.Errorf("Sum = %g, want 0.021", got)
	}
	if h.Min() != 0.001 || h.Max() != 0.016 {
		t.Errorf("Min/Max = %g/%g, want 0.001/0.016", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-0.007) > 1e-12 {
		t.Errorf("Mean = %g, want 0.007", got)
	}

	h.Observe(0)
	h.Observe(-1)
	h.Observe(math.NaN())
	if h.Count() != 6 {
		t.Errorf("Count after underflow = %d, want 6", h.Count())
	}
	if h.underflow != 3 {
		t.Errorf("underflow = %d, want 3", h.underflow)
	}
	if h.Min() != -1 {
		t.Errorf("Min after underflow = %g, want -1", h.Min())
	}
}

// TestHistogramQuantile checks the rank-walk estimate against the ≤6.25%
// bucket-width error bound on a known distribution, and the exact-min/max
// clamping at the extremes.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 1..1000 milliseconds: true quantile q is ~q seconds.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		if rel := math.Abs(got-q) / q; rel > 1.0/histSub {
			t.Errorf("Quantile(%g) = %g, relative error %g exceeds %g", q, got, rel, 1.0/histSub)
		}
	}
	if h.Quantile(0) != h.Min() {
		t.Errorf("Quantile(0) = %g, want Min %g", h.Quantile(0), h.Min())
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("Quantile(1) = %g, want Max %g", h.Quantile(1), h.Max())
	}

	// Single observation: every quantile is that value exactly (midpoint
	// clamps to [min, max]).
	var one Histogram
	one.Observe(0.25)
	if got := one.Quantile(0.5); got != 0.25 {
		t.Errorf("single-value Quantile(0.5) = %g, want 0.25", got)
	}
}

// TestHistogramNil verifies the whole nil-receiver surface: a detached
// producer can call every method without panicking.
func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 ||
		h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Name() != "" || h.Unit() != "" {
		t.Error("nil histogram accessors not all zero")
	}
	h.Buckets(func(lo, hi float64, c uint64) { t.Error("nil Buckets invoked fn") })
}

// TestRegistryHistogram checks name-keyed idempotence and nil-registry
// behavior of the constructor.
func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("wait/L", "s")
	b := r.Histogram("wait/L", "s")
	if a != b {
		t.Error("same name returned distinct histograms")
	}
	if len(r.Histograms()) != 1 {
		t.Errorf("Histograms() len = %d, want 1", len(r.Histograms()))
	}
	var nilReg *Registry
	if h := nilReg.Histogram("x", "s"); h != nil {
		t.Error("nil registry returned non-nil histogram")
	}
	nilReg.RecordPerf([]PerfStat{{Kind: "other"}})
	if nilReg.Perf() != nil {
		t.Error("nil registry Perf() not nil")
	}
}

// TestWriteHistogramsExports pins the JSONL export byte-for-byte on a small
// fixed histogram — the same determinism contract the events export has.
func TestWriteHistogramsExports(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("solve/water-fill", "s")
	h.Observe(0.5) // bucket [0.5, 0.53125): midpoint clamps to max 0.5
	h.Observe(0.5)

	var jsonl strings.Builder
	if err := r.WriteHistogramsJSONL(&jsonl); err != nil {
		t.Fatalf("WriteHistogramsJSONL: %v", err)
	}
	wantJSONL := `{"name":"solve/water-fill","unit":"s","count":2,"sum":1,"min":0.5,"max":0.5,"p50":0.5,"p90":0.5,"p99":0.5,"buckets":[[0.5,0.53125,2]]}` + "\n"
	if jsonl.String() != wantJSONL {
		t.Errorf("JSONL:\n got %q\nwant %q", jsonl.String(), wantJSONL)
	}
}

// TestWritePerfCSV pins the self-profile export format.
func TestWritePerfCSV(t *testing.T) {
	r := NewRegistry()
	r.RecordPerf([]PerfStat{
		{Kind: "link-tx", Events: 1200, WallSeconds: 0.25, Sampled: 20},
		{Kind: "control", Events: 40, WallSeconds: 0.01, Sampled: 1},
	})
	var csv strings.Builder
	if err := r.WritePerfCSV(&csv); err != nil {
		t.Fatalf("WritePerfCSV: %v", err)
	}
	want := "kind,events,wall_s,sampled\nlink-tx,1200,0.250000,20\ncontrol,40,0.010000,1\n"
	if csv.String() != want {
		t.Errorf("perf CSV:\n got %q\nwant %q", csv.String(), want)
	}
}
