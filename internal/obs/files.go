package obs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteDir writes the registry's full telemetry bundle into dir, prefixing
// every file name (use "fig5." to get "fig5.events.jsonl" and so on):
//
//	<prefix>events.jsonl   control events, one JSON object per line
//	<prefix>series.csv     sampled gauge time series, one column per gauge
//	<prefix>counters.csv   final counter values
//	<prefix>hist.jsonl     histograms: stats, quantiles and buckets per line
//	<prefix>perf.csv       engine self-profile (events and wall time per
//	                       handler kind; empty unless a profiler ran)
//	<prefix>trace.json     Chrome trace_event timeline (chrome://tracing,
//	                       Perfetto)
//
// It returns the paths written, in that order. A nil registry writes
// nothing and returns nil.
func (r *Registry) WriteDir(dir, prefix string) ([]string, error) {
	if r == nil {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"events.jsonl", r.WriteEventsJSONL},
		{"series.csv", r.WriteSeriesCSV},
		{"counters.csv", r.WriteCounters},
		{"hist.jsonl", r.WriteHistogramsJSONL},
		{"perf.csv", r.WritePerfCSV},
		{"trace.json", r.WriteChromeTrace},
	}
	paths := make([]string, 0, len(files))
	for _, f := range files {
		path := filepath.Join(dir, prefix+f.name)
		out, err := os.Create(path)
		if err != nil {
			return paths, err
		}
		if err := f.write(out); err != nil {
			out.Close()
			return paths, fmt.Errorf("write %s: %w", path, err)
		}
		if err := out.Close(); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// FilePrefix sanitizes an arbitrary job or sweep-point label into a telemetry
// file-name prefix: every byte outside [A-Za-z0-9._-] becomes '-', and a
// trailing '.' is appended so WriteDir yields "<label>.events.jsonl".
func FilePrefix(label string) string {
	b := []byte(label)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			b[i] = '-'
		}
	}
	return string(b) + "."
}
