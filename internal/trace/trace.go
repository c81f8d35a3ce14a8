// Package trace renders experiment results as tabular text: CSV files with
// one column per flow (directly plottable, matching the layout of the
// paper's figures) and human-readable summaries.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// SeriesKind selects which per-flow series to export.
type SeriesKind int

// Series kinds.
const (
	// SeriesAllowed is the edge's allowed rate b_g(f) — the paper's
	// "alloted rate" axis (Figures 3, 5–10).
	SeriesAllowed SeriesKind = iota + 1
	// SeriesReceived is the egress goodput.
	SeriesReceived
	// SeriesCumulative is the cumulative delivered-packet count
	// (Figure 4).
	SeriesCumulative
)

// String implements fmt.Stringer.
func (k SeriesKind) String() string {
	switch k {
	case SeriesAllowed:
		return "allowed"
	case SeriesReceived:
		return "received"
	case SeriesCumulative:
		return "cumulative"
	default:
		return fmt.Sprintf("SeriesKind(%d)", int(k))
	}
}

func seriesOf(f *experiments.FlowResult, kind SeriesKind) metrics.Series {
	switch kind {
	case SeriesReceived:
		return f.ReceiveRate
	case SeriesCumulative:
		return f.Cumulative
	default:
		return f.AllowedRate
	}
}

// csvChunk is the most bytes WriteCSV gathers before each Write, and
// csvCellMax bounds what one cell appends past it: a comma and the longest
// three-decimal float64 (a sign, 309 integer digits and ".000").
const (
	csvChunk   = 64 << 10
	csvCellMax = 320
)

// WriteCSV writes "time_s,flow1,flow2,..." rows for the chosen series: one
// row per distinct sample time across all flows, ascending; a flow without
// a sample at a row's time renders an empty cell, and of several samples
// sharing one At the last wins.
//
// Rows come from a k-way cursor merge over the per-flow series, which the
// engines emit in time order (metrics.Series is "an ordered list of
// samples"): the row time is the minimum over the cursors and a flow fills
// its cell iff its cursor sits on that time, so cost is O(rows·flows). The
// output goes out in chunks of at most csvChunk bytes (16 per column when
// that is less) whatever the row width, so besides one cursor per flow the
// writer holds one fixed buffer, not a row. (A cursor is the flow's unread
// suffix. A four-byte position would be smaller, but each cell would then
// re-read the flow's FlowResult, and on 100k flows the merge ran about 1.5×
// slower.) A series found out of order is sorted into a copy first, which
// keeps the one merge path for any input.
func WriteCSV(w io.Writer, res *experiments.Result, kind SeriesKind) error {
	chunk := csvChunk
	if res != nil && 16*(len(res.Flows)+1) < chunk {
		chunk = 16 * (len(res.Flows) + 1)
	}
	return writeCSV(w, res, kind, chunk)
}

// writeCSV is WriteCSV with the chunk size as a parameter, so that tests
// can put chunk boundaries anywhere in a row or the header.
func writeCSV(w io.Writer, res *experiments.Result, kind SeriesKind, chunk int) error {
	if res == nil {
		return fmt.Errorf("trace: nil result")
	}
	flows := res.Flows
	buf := make([]byte, 0, chunk+csvCellMax)
	var err error
	buf = append(buf, "time_s"...)
	for i := range flows {
		if buf, err = spill(w, buf, chunk); err != nil {
			return err
		}
		buf = append(buf, ",flow"...)
		buf = strconv.AppendInt(buf, int64(flows[i].Index), 10)
	}
	buf = append(buf, '\n')

	// rest[i] is flow i's not-yet-emitted suffix; next is the minimum head
	// time over the non-empty suffixes, recomputed while a row is emitted.
	rest := make([]metrics.Series, len(flows))
	var next time.Duration
	more := false
	for i := range flows {
		s := timeOrdered(seriesOf(&flows[i], kind))
		rest[i] = s
		if len(s) > 0 && (!more || s[0].At < next) {
			next, more = s[0].At, true
		}
	}
	for more {
		t := next
		more = false
		if buf, err = spill(w, buf, chunk); err != nil {
			return err
		}
		buf = appendFixed3(buf, t.Seconds())
		for i, s := range rest {
			if buf, err = spill(w, buf, chunk); err != nil {
				return err
			}
			buf = append(buf, ',')
			if len(s) == 0 {
				continue
			}
			if s[0].At == t {
				k := 1
				for k < len(s) && s[k].At == t {
					k++
				}
				buf = appendFixed3(buf, s[k-1].Value)
				s = s[k:]
				rest[i] = s
				if len(s) == 0 {
					continue
				}
			}
			if !more || s[0].At < next {
				next, more = s[0].At, true
			}
		}
		buf = append(buf, '\n')
	}
	_, err = w.Write(buf)
	return err
}

// spill writes buf out once it holds a chunk and returns it emptied, and
// otherwise returns it as it is.
func spill(w io.Writer, buf []byte, chunk int) ([]byte, error) {
	if len(buf) < chunk {
		return buf, nil
	}
	_, err := w.Write(buf)
	return buf[:0], err
}

// timeOrdered returns s when it is sorted by At (ties allowed) and a stably
// sorted copy otherwise: the caller's series is never reordered, and
// stability keeps "the last sample at a time wins" the last in its order.
func timeOrdered(s metrics.Series) metrics.Series {
	for i := 1; i < len(s); i++ {
		if s[i].At < s[i-1].At {
			c := append(metrics.Series(nil), s...)
			sort.SliceStable(c, func(a, b int) bool { return c[a].At < c[b].At })
			return c
		}
	}
	return s
}

// appendFixed3 appends v with exactly three decimals, byte-for-byte what
// strconv.AppendFloat(b, v, 'f', 3, 64) appends. strconv takes its
// multi-precision path for every 'f' conversion with an explicit precision;
// for three decimals the correctly rounded result needs only integers:
// |v| = m·2^e with m < 2^53, so |v|·1000 = (m·1000)/2^-e where m·1000 <
// 2^63 fits a uint64 and the discarded low bits are the exact remainder,
// which makes round-half-even exact rather than approximate. For e <= -64
// the quotient is below 2^-1, i.e. 0.000. NaN, ±Inf and values of 2^52 and
// above (e >= 0, where the scaled integer could overflow) go to strconv.
func appendFixed3(b []byte, v float64) []byte {
	bits := math.Float64bits(v)
	exp := int(bits>>52) & 0x7ff
	m := bits & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit, same scale as the smallest normal
	} else {
		m |= 1 << 52
	}
	if exp >= 1075 {
		return strconv.AppendFloat(b, v, 'f', 3, 64)
	}
	var q uint64
	if shift := uint(1075 - exp); shift < 64 { // |v| = m / 2^shift
		num := m * 1000
		q = num >> shift
		rem := num & (1<<shift - 1)
		half := uint64(1) << (shift - 1)
		if rem > half || (rem == half && q&1 == 1) {
			q++
		}
	}
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, q/1000, 10)
	f := q % 1000
	return append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}

// WriteSummary writes a human-readable per-flow summary table: weight,
// expected steady-state rate (full active set), mean allowed rate over the
// final quarter of the run, delivered packets, and losses.
func WriteSummary(w io.Writer, res *experiments.Result) error {
	if res == nil {
		return fmt.Errorf("trace: nil result")
	}
	if _, err := fmt.Fprintf(w, "scenario %s (%s): %d flows, %d events, %d total losses\n",
		res.Name, res.Scheme, len(res.Flows), res.Events, res.TotalLosses); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-6s %-8s %-12s %-14s %-10s %-8s\n",
		"flow", "weight", "expected", "mean(last25%)", "delivered", "losses"); err != nil {
		return err
	}
	tail := res.Duration - res.Duration/4
	for _, f := range res.Flows {
		mean := f.AllowedRate.MeanOver(tail, res.Duration)
		if _, err := fmt.Fprintf(w, "%-6d %-8.1f %-12.2f %-14.2f %-10d %-8d\n",
			f.Index, f.Weight, res.ExpectedFullSet[f.Index], mean, f.Delivered, f.Losses); err != nil {
			return err
		}
	}
	return nil
}
