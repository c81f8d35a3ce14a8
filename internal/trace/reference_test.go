package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// writeCSVReference is WriteCSV as it stood before the cursor merge: a
// time-set map for the row times, one map per flow for the cells, strconv for
// every number. It makes no assumption about sample order, which is what
// makes it the reference the merge is held to.
func writeCSVReference(w io.Writer, res *experiments.Result, kind SeriesKind) error {
	if res == nil {
		return fmt.Errorf("trace: nil result")
	}
	buf := make([]byte, 0, 16*(len(res.Flows)+1))
	buf = append(buf, "time_s"...)
	for _, f := range res.Flows {
		buf = append(buf, ",flow"...)
		buf = strconv.AppendInt(buf, int64(f.Index), 10)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return err
	}

	timeSet := make(map[time.Duration]bool)
	for _, f := range res.Flows {
		for _, s := range seriesOf(&f, kind) {
			timeSet[s.At] = true
		}
	}
	times := make([]time.Duration, 0, len(timeSet))
	for t := range timeSet {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	perFlow := make([]map[time.Duration]float64, len(res.Flows))
	for i, f := range res.Flows {
		m := make(map[time.Duration]float64)
		for _, s := range seriesOf(&f, kind) {
			m[s.At] = s.Value
		}
		perFlow[i] = m
	}

	for _, t := range times {
		buf = buf[:0]
		buf = strconv.AppendFloat(buf, t.Seconds(), 'f', 3, 64)
		for i := range res.Flows {
			buf = append(buf, ',')
			if v, ok := perFlow[i][t]; ok {
				buf = strconv.AppendFloat(buf, v, 'f', 3, 64)
			}
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

var allKinds = []SeriesKind{SeriesAllowed, SeriesReceived, SeriesCumulative}

// requireMatchesReference renders every series kind of res both ways.
func requireMatchesReference(t *testing.T, res *experiments.Result) {
	t.Helper()
	for _, kind := range allKinds {
		var got, want bytes.Buffer
		if err := WriteCSV(&got, res, kind); err != nil {
			t.Fatalf("WriteCSV(%v): %v", kind, err)
		}
		if err := writeCSVReference(&want, res, kind); err != nil {
			t.Fatalf("writeCSVReference(%v): %v", kind, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%v CSV differs from the map-based reference (%d vs %d bytes)\n got: %.300q\nwant: %.300q",
				kind, got.Len(), want.Len(), got.String(), want.String())
		}
	}
}

// TestWriteCSVMatchesReferenceOnFigures holds the merge to the reference on
// what the engines really emit: every figure scenario on both backends (the
// packet recorder's grids differ per flow under churn; the fluid engine's are
// uniform). TestMidScaleCSVPinned adds a generated scenario above the
// incremental cutoff.
func TestWriteCSVMatchesReferenceOnFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure runs; skipped in -short")
	}
	t.Parallel()
	for _, sc := range experiments.AllFigures(1) {
		for _, backend := range []experiments.Backend{experiments.BackendPacket, experiments.BackendFlow} {
			sc, backend := sc, backend
			t.Run(fmt.Sprintf("%s/%v", sc.Name, backend), func(t *testing.T) {
				t.Parallel()
				sc.Backend = backend
				res, err := experiments.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesReference(t, res)
			})
		}
	}
}

func series(pairs ...float64) metrics.Series {
	s := make(metrics.Series, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		s = append(s, metrics.Sample{At: time.Duration(pairs[i] * float64(time.Second)), Value: pairs[i+1]})
	}
	return s
}

func resultOf(ss ...metrics.Series) *experiments.Result {
	res := &experiments.Result{Name: "synthetic"}
	for i, s := range ss {
		res.Flows = append(res.Flows, experiments.FlowResult{
			Index: i + 1, Weight: 1, AllowedRate: s, ReceiveRate: s, Cumulative: s,
		})
	}
	return res
}

// TestWriteCSVMatchesReferenceOnSynthetic covers the shapes the engines do
// not produce but the public contract admits.
func TestWriteCSVMatchesReferenceOnSynthetic(t *testing.T) {
	cases := map[string]*experiments.Result{
		"no flows":      resultOf(),
		"all empty":     resultOf(nil, nil),
		"missing cells": resultOf(series(1, 10, 2, 20, 3, 30), series(1, 5, 3, 15)),
		"empty series":  resultOf(series(1, 10, 2, 20), nil, series(2, 7)),
		"disjoint grids": resultOf(
			series(0.5, 1, 1.5, 2, 2.5, 3), series(1, 4, 2, 5, 3, 6), series(0.25, 7, 9.75, 8)),
		"duplicate At":       resultOf(series(1, 10, 1, 11, 2, 20, 2, 21, 2, 22), series(1, 5, 2, 6)),
		"unsorted":           resultOf(series(3, 30, 1, 10, 2, 20), series(1, 5, 2, 6, 3, 7)),
		"unsorted duplicate": resultOf(series(2, 20, 1, 10, 2, 21, 1, 11), series(2, 1)),
		"negative and tiny":  resultOf(series(0, -0.0004, 1, -0.0005, 2, 1e-300, 3, -1e-300)),
		"huge and non-finite": resultOf(series(1, 1e15, 2, 9007199254740993, 3, 1e300),
			series(1, inf, 2, -inf, 3, nan)),
	}
	for name, res := range cases {
		res := res
		t.Run(name, func(t *testing.T) { requireMatchesReference(t, res) })
	}

	// The unsorted series must come out sorted without the caller's slice
	// having been reordered.
	in := series(3, 30, 1, 10, 2, 20)
	var sb bytes.Buffer
	if err := WriteCSV(&sb, resultOf(in), SeriesAllowed); err != nil {
		t.Fatal(err)
	}
	if want := "time_s,flow1\n1.000,10.000\n2.000,20.000\n3.000,30.000\n"; sb.String() != want {
		t.Errorf("unsorted series rendered as %q, want %q", sb.String(), want)
	}
	if in[0].Value != 30 || in[1].Value != 10 || in[2].Value != 20 {
		t.Errorf("WriteCSV reordered the caller's series: %v", in)
	}
}

// TestWriteCSVMatchesReferenceOnRandom throws seeded random results at both
// writers: ragged grids, gaps, repeated times, and the odd unsorted series.
func TestWriteCSVMatchesReferenceOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		var ss []metrics.Series
		for f := rng.Intn(8); f >= 0; f-- {
			var s metrics.Series
			at := time.Duration(0)
			for n := rng.Intn(12); n > 0; n-- {
				if rng.Intn(4) > 0 {
					at += time.Duration(1+rng.Intn(3)) * 250 * time.Millisecond
				}
				s = append(s, metrics.Sample{At: at, Value: float64(rng.Intn(1e6)) / 16000})
			}
			if rng.Intn(6) == 0 {
				rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
			}
			ss = append(ss, s)
		}
		requireMatchesReference(t, resultOf(ss...))
		if t.Failed() {
			t.Fatalf("round %d", round)
		}
	}
}

// TestWriteCSVAllocationsIndependentOfFlows: the merge keeps one cursor slice
// and one row buffer however many columns there are.
func TestWriteCSVAllocationsIndependentOfFlows(t *testing.T) {
	allocs := func(flows int) float64 {
		res := syntheticResult(flows, 18)
		return testing.AllocsPerRun(5, func() {
			if err := WriteCSV(io.Discard, res, SeriesAllowed); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10000)
	if large > 16 {
		t.Errorf("WriteCSV of 10k flows makes %v allocations, want <= 16", large)
	}
	if large > small+2 {
		t.Errorf("WriteCSV allocations grow with the flow count: %v at 100 flows, %v at 10k", small, large)
	}
}
