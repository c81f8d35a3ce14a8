package netem

import (
	"fmt"
	"io"
	"time"

	"repro/internal/packet"
)

// EventKind classifies packet-level trace events, mirroring ns-2's trace
// format (+ enqueue, - dequeue, r receive, d drop).
type EventKind byte

// Trace event kinds.
const (
	// EventEnqueue: the packet entered a link's output queue.
	EventEnqueue EventKind = '+'
	// EventDequeue: the packet began transmission.
	EventDequeue EventKind = '-'
	// EventReceive: the packet arrived at its destination node.
	EventReceive EventKind = 'r'
	// EventDrop: the packet was discarded.
	EventDrop EventKind = 'd'
)

// TraceEvent is one packet-level event.
type TraceEvent struct {
	At   time.Duration
	Kind EventKind
	// Where identifies the link (enqueue/dequeue/drop with a link) or
	// node (receive, routing drops).
	Where  string
	Packet *packet.Packet
	// Reason is set for drops.
	Reason DropReason
}

// Format renders the event in an ns-2-like single-line form:
//
//   - 1.234567 C1->C2 in1/0 seq 42 size 1000
func (e TraceEvent) Format() string {
	kind := "data"
	if e.Packet.Kind == packet.KindAck {
		kind = "ack"
	}
	marker := ""
	if e.Packet.Marker != nil {
		marker = " marked"
	}
	reason := ""
	if e.Kind == EventDrop {
		reason = " " + e.Reason.String()
	}
	return fmt.Sprintf("%c %.6f %s %s seq %d size %d %s%s%s",
		e.Kind, e.At.Seconds(), e.Where, e.Packet.Flow, e.Packet.Seq,
		e.Packet.SizeBytes, kind, marker, reason)
}

// Tracer consumes packet-level events. Install one with Network.SetTracer;
// tracing is off (zero overhead beyond a nil check) by default.
type Tracer interface {
	Trace(e TraceEvent)
}

// WriterTracer renders events line by line to an io.Writer.
type WriterTracer struct {
	W io.Writer
	// Filter, when non-nil, limits output to events it accepts.
	Filter func(TraceEvent) bool
	// Err holds the first write error (tracing never interrupts the
	// simulation).
	Err error
}

var _ Tracer = (*WriterTracer)(nil)

// Trace implements Tracer.
func (t *WriterTracer) Trace(e TraceEvent) {
	if t.Filter != nil && !t.Filter(e) {
		return
	}
	if t.Err != nil {
		return
	}
	if _, err := fmt.Fprintln(t.W, e.Format()); err != nil {
		t.Err = err
	}
}

// SetTracer installs (or removes, with nil) the network's packet tracer.
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

func (n *Network) trace(e TraceEvent) {
	if n.tracer != nil {
		n.tracer.Trace(e)
	}
}
