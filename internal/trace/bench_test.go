package trace

import (
	"io"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// syntheticResult builds a result with the given number of flows, each
// carrying one sample per window across the run — the shape WriteCSV sees
// when rendering a long figure.
func syntheticResult(flows, samples int) *experiments.Result {
	res := &experiments.Result{
		Name:     "bench",
		Duration: time.Duration(samples) * time.Second,
	}
	for i := 1; i <= flows; i++ {
		s := make(metrics.Series, samples)
		for j := range s {
			s[j] = metrics.Sample{
				At:    time.Duration(j+1) * time.Second,
				Value: float64(i*1000+j) / 7,
			}
		}
		res.Flows = append(res.Flows, experiments.FlowResult{
			Index:       i,
			Weight:      1,
			AllowedRate: s,
		})
	}
	return res
}

// BenchmarkWriteCSV measures CSV rendering on a 10-flow, 10k-sample result
// (100k cells): the row assembly must stay linear in cells, not quadratic
// in row length.
func BenchmarkWriteCSV(b *testing.B) {
	res := syntheticResult(10, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteCSV(io.Discard, res, SeriesAllowed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteCSVWide is the flow_fattree100k shape: 100k columns, 18 rows.
// The cost per op must be the 1.8M cells, with no per-flow setup on top.
func BenchmarkWriteCSVWide(b *testing.B) {
	res := syntheticResult(100000, 18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteCSV(io.Discard, res, SeriesAllowed); err != nil {
			b.Fatal(err)
		}
	}
}
