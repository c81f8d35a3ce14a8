package obs

import (
	"io"
	"strconv"
)

// PerfStat is one handler kind's share of the engine self-profile: how many
// scheduler events of that kind a run processed and the estimated wall-clock
// time they cost. It is produced by the event-loop profiler in internal/sim
// (which strides its clock reads to stay off the hot path) and recorded into
// the Registry at run end via RecordPerf.
//
// PerfStat measures the engine, not the model: wall seconds vary run to run
// with the host, while every other exported series is simulated-time
// deterministic.
type PerfStat struct {
	// Kind names the handler category ("link-tx", "control", "source", ...).
	Kind string
	// Events is the exact number of processed events attributed to the kind.
	Events uint64
	// WallSeconds estimates the cumulative wall-clock time spent in the
	// kind's handlers, extrapolated from the strided samples.
	WallSeconds float64
	// Sampled is the number of events that were actually timed; the
	// estimate is (timed total) × (Events / Sampled).
	Sampled uint64
}

// WritePerfCSV renders the engine self-profile as
// "kind,events,wall_s,sampled" rows in recorded order. An empty profile
// writes only the header.
func (r *Registry) WritePerfCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	if _, err := io.WriteString(w, "kind,events,wall_s,sampled\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 64)
	for _, p := range r.perf {
		buf = buf[:0]
		buf = append(buf, p.Kind...)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, p.Events, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, p.WallSeconds, 'f', 6, 64)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, p.Sampled, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteHistogramsJSONL renders every registered histogram as one JSON line
// with summary statistics and the non-empty buckets:
//
//	{"name":"solve/water-fill","unit":"s","count":12,"sum":0.5,...,"buckets":[[lo,hi,count],...]}
//
// Hand-rolled like WriteEventsJSONL so field order is fixed and output is
// byte-deterministic for identical registry contents.
func (r *Registry) WriteHistogramsJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	buf := make([]byte, 0, 512)
	for _, h := range r.hists {
		buf = buf[:0]
		buf = append(buf, `{"name":`...)
		buf = strconv.AppendQuote(buf, h.name)
		buf = append(buf, `,"unit":`...)
		buf = strconv.AppendQuote(buf, h.unit)
		buf = append(buf, `,"count":`...)
		buf = strconv.AppendUint(buf, h.count, 10)
		buf = append(buf, `,"sum":`...)
		buf = appendFloat(buf, h.Sum())
		buf = append(buf, `,"min":`...)
		buf = appendFloat(buf, h.Min())
		buf = append(buf, `,"max":`...)
		buf = appendFloat(buf, h.Max())
		for _, q := range [...]struct {
			label string
			q     float64
		}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
			buf = append(buf, ',', '"')
			buf = append(buf, q.label...)
			buf = append(buf, '"', ':')
			buf = appendFloat(buf, h.Quantile(q.q))
		}
		buf = append(buf, `,"buckets":[`...)
		first := true
		h.Buckets(func(lo, hi float64, count uint64) {
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, '[')
			buf = appendFloat(buf, lo)
			buf = append(buf, ',')
			buf = appendFloat(buf, hi)
			buf = append(buf, ',')
			buf = strconv.AppendUint(buf, count, 10)
			buf = append(buf, ']')
		})
		buf = append(buf, ']', '}', '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
