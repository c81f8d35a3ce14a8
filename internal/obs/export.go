package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// appendFloat renders v compactly ('g', shortest round-trip) for JSONL.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WriteEventsJSONL renders the recorded control events as JSON Lines, one
// event per line with zero-valued fields omitted:
//
//	{"t":12.400000,"kind":"epoch-start","node":"C1","link":"C1->C2","qavg":9.125,"fn":3.2}
//
// The encoding is hand-rolled so the hot fields keep a fixed order and the
// output is byte-deterministic across runs.
func (r *Registry) WriteEventsJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	buf := make([]byte, 0, 160)
	for _, e := range r.events {
		buf = buf[:0]
		buf = append(buf, `{"t":`...)
		buf = strconv.AppendFloat(buf, e.At.Seconds(), 'f', 6, 64)
		buf = append(buf, `,"kind":`...)
		buf = strconv.AppendQuote(buf, e.Kind.String())
		if e.Node != "" {
			buf = append(buf, `,"node":`...)
			buf = strconv.AppendQuote(buf, e.Node)
		}
		if e.Link != "" {
			buf = append(buf, `,"link":`...)
			buf = strconv.AppendQuote(buf, e.Link)
		}
		if e.Flow != "" {
			buf = append(buf, `,"flow":`...)
			buf = strconv.AppendQuote(buf, e.Flow)
		}
		if e.QAvg != 0 {
			buf = append(buf, `,"qavg":`...)
			buf = appendFloat(buf, e.QAvg)
		}
		if e.Fn != 0 {
			buf = append(buf, `,"fn":`...)
			buf = appendFloat(buf, e.Fn)
		}
		if e.Old != 0 {
			buf = append(buf, `,"old":`...)
			buf = appendFloat(buf, e.Old)
		}
		if e.New != 0 {
			buf = append(buf, `,"new":`...)
			buf = appendFloat(buf, e.New)
		}
		if e.Detail != "" {
			buf = append(buf, `,"detail":`...)
			buf = strconv.AppendQuote(buf, e.Detail)
		}
		buf = append(buf, '}', '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteSeriesCSV renders the sampled gauge time series as
// "time_s,<gauge>,<gauge>,..." rows at the sampler's granularity, matching
// the figure CSVs' layout. Instants at which a gauge did not yet exist
// render as empty cells.
func (r *Registry) WriteSeriesCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	header := make([]byte, 0, 256)
	header = append(header, "time_s"...)
	for _, g := range r.gauges {
		header = append(header, ',')
		header = append(header, g.name...)
	}
	header = append(header, '\n')
	if _, err := w.Write(header); err != nil {
		return err
	}
	buf := make([]byte, 0, 16*(len(r.gauges)+1))
	for i, t := range r.sampleAt {
		buf = buf[:0]
		buf = strconv.AppendFloat(buf, t.Seconds(), 'f', 3, 64)
		for _, s := range r.series {
			buf = append(buf, ',')
			if v := s[i]; !math.IsNaN(v) {
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

// WriteCounters renders the final counter values as "name,value" CSV rows
// in registration order — the run-level tallies behind Summary.
func (r *Registry) WriteCounters(w io.Writer) error {
	if r == nil {
		return nil
	}
	if _, err := io.WriteString(w, "counter,value\n"); err != nil {
		return err
	}
	for _, c := range r.counters {
		if _, err := fmt.Fprintf(w, "%s,%d\n", c.name, c.v); err != nil {
			return err
		}
	}
	return nil
}
