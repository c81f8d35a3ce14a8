package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. Spans are recorded by the benchmark around
// its calls into the layers' public functions — nothing inside the program is
// instrumented — kept in memory, and written out when the benchmark ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer records nested spans on one goroutine. A nil tracer records
// nothing, so the timed path and the traced path share their set-up code.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int // ids of the spans in progress, innermost last
}

func newTracer(workload string, origin time.Time) *tracer {
	return &tracer{workload: workload, origin: origin}
}

// start opens a span under the innermost open one and returns its id.
func (t *tracer) start(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, StartNs: time.Since(t.origin).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("benchmark: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].EndNs = time.Since(t.origin).Nanoseconds()
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// total sums the durations of every span called name, in seconds.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.seconds()
		}
	}
	return sum
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
