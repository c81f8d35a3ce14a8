package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func sampleResult() *experiments.Result {
	mk := func(vals ...float64) metrics.Series {
		s := make(metrics.Series, len(vals))
		for i, v := range vals {
			s[i] = metrics.Sample{At: time.Duration(i+1) * time.Second, Value: v}
		}
		return s
	}
	return &experiments.Result{
		Name:   "test",
		Scheme: experiments.SchemeCorelite,
		Flows: []experiments.FlowResult{
			{
				Index: 1, Weight: 1,
				AllowedRate: mk(10, 20, 30), ReceiveRate: mk(9, 19, 29),
				Cumulative: mk(9, 28, 57), Delivered: 57,
			},
			{
				Index: 2, Weight: 2,
				AllowedRate: mk(20, 40, 60), ReceiveRate: mk(18, 38, 58),
				Cumulative: mk(18, 56, 114), Delivered: 114, Losses: 3,
			},
		},
		TotalLosses:     3,
		ExpectedFullSet: map[int]float64{1: 30, 2: 60},
		SampleWindow:    time.Second,
		Duration:        3 * time.Second,
	}
}

func TestWriteCSVAllowed(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, sampleResult(), SeriesAllowed); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header + 3 rows:\n%s", len(lines), sb.String())
	}
	if lines[0] != "time_s,flow1,flow2" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1.000,10.000,20.000" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[3] != "3.000,30.000,60.000" {
		t.Errorf("row 3 = %q", lines[3])
	}
}

func TestWriteCSVKinds(t *testing.T) {
	for _, kind := range []SeriesKind{SeriesAllowed, SeriesReceived, SeriesCumulative} {
		var sb strings.Builder
		if err := WriteCSV(&sb, sampleResult(), kind); err != nil {
			t.Fatalf("WriteCSV(%v): %v", kind, err)
		}
		if !strings.Contains(sb.String(), "flow2") {
			t.Errorf("kind %v output missing flow2 column", kind)
		}
	}
}

func TestWriteCSVNilResult(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, nil, SeriesAllowed); err == nil {
		t.Error("WriteCSV(nil) succeeded")
	}
	if err := WriteSummary(&sb, nil); err == nil {
		t.Error("WriteSummary(nil) succeeded")
	}
}

func TestWriteCSVMissingSamples(t *testing.T) {
	res := sampleResult()
	// Flow 2 misses the t=2s sample.
	res.Flows[1].AllowedRate = metrics.Series{
		{At: time.Second, Value: 20},
		{At: 3 * time.Second, Value: 60},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, res, SeriesAllowed); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[2] != "2.000,20.000," {
		t.Errorf("row with missing sample = %q, want empty last cell", lines[2])
	}
}

func TestWriteSummary(t *testing.T) {
	var sb strings.Builder
	if err := WriteSummary(&sb, sampleResult()); err != nil {
		t.Fatalf("WriteSummary: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"scenario test (corelite)", "3 total losses", "flow", "30.00", "60.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesKindString(t *testing.T) {
	if SeriesAllowed.String() != "allowed" || SeriesCumulative.String() != "cumulative" {
		t.Error("SeriesKind.String wrong")
	}
}
