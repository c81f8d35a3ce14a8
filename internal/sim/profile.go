package sim

import "time"

// HandlerKind classifies a scheduler event's handler for the event-loop
// profiler. Producers tag their handlers by calling Scheduler.MarkHandler at
// the top of the callback; untagged events are attributed to KindOther.
type HandlerKind uint8

// Handler kinds, in display order.
const (
	// KindOther is any handler that never called MarkHandler.
	KindOther HandlerKind = iota
	// KindLinkTx is a link transmit-completion handler (netem service).
	KindLinkTx
	// KindLinkProp is a link propagation-arrival handler.
	KindLinkProp
	// KindSource is a workload source emission (shaper / on-off burst).
	KindSource
	// KindControl is control-plane work: congestion/adaptation epoch ticks
	// and feedback deliveries.
	KindControl
	// KindMeasure is measurement work: metric flushes and telemetry
	// sampling ticks.
	KindMeasure

	numHandlerKinds
)

var handlerKindNames = [numHandlerKinds]string{
	"other", "link-tx", "link-prop", "source", "control", "measure",
}

// String names the kind ("link-tx", "control", ...).
func (k HandlerKind) String() string {
	if int(k) < len(handlerKindNames) {
		return handlerKindNames[k]
	}
	return "other"
}

// HandlerStat is one kind's share of a profiled run.
type HandlerStat struct {
	// Kind is the handler category.
	Kind HandlerKind
	// Events is the exact number of events attributed to the kind.
	Events uint64
	// Wall is the measured wall time over the Sampled events only.
	Wall time.Duration
	// Sampled is how many of the kind's events were actually timed.
	Sampled uint64
	// EstWall extrapolates Wall to all of the kind's events:
	// Wall × Events ⁄ Sampled (equal to Wall when nothing was sampled).
	EstWall time.Duration
}

// LoopProfiler attributes processed-event counts and wall-clock time to
// handler kinds. Counting is exact (one array increment per event); timing
// is strided — only every strideth event pays the two clock reads — because
// the event loop runs at hundreds of nanoseconds per event and an
// unconditional time.Now() pair would cost more than the 5% overhead budget
// the profiler itself is meant to police. The per-kind wall totals are
// therefore estimates, extrapolated from the sampled population; Events is
// always exact.
//
// Like the rest of the observability layer, the profiler is single-threaded
// and must only be attached to one Scheduler. A nil *LoopProfiler attached
// to a Scheduler is the same as none.
type LoopProfiler struct {
	counts  [numHandlerKinds]uint64
	wall    [numHandlerKinds]time.Duration
	sampled [numHandlerKinds]uint64

	n      uint64 // events seen (drives the stride)
	mask   uint64 // stride-1 (stride is a power of two)
	timing bool
	t0     time.Time
	cur    HandlerKind
}

// DefaultProfileStride is the default timing stride: one in every 64 events
// is timed, keeping the attached overhead to a pair of branches and an
// increment on the other 63.
const DefaultProfileStride = 64

// NewLoopProfiler returns a profiler timing one in every stride events.
// stride is rounded down to a power of two; values < 1 select the default.
func NewLoopProfiler(stride int) *LoopProfiler {
	if stride < 1 {
		stride = DefaultProfileStride
	}
	pow := 1
	for pow*2 <= stride {
		pow *= 2
	}
	return &LoopProfiler{mask: uint64(pow - 1)}
}

// begin opens one event's accounting window.
func (p *LoopProfiler) begin() {
	p.cur = KindOther
	p.n++
	if p.timing = p.n&p.mask == 0; p.timing {
		p.t0 = time.Now()
	}
}

// end closes the window and attributes the event.
func (p *LoopProfiler) end() {
	k := p.cur
	p.counts[k]++
	if p.timing {
		p.wall[k] += time.Since(p.t0)
		p.sampled[k]++
	}
}

// Snapshot returns the per-kind statistics for every kind that saw at least
// one event, in kind order.
func (p *LoopProfiler) Snapshot() []HandlerStat {
	if p == nil {
		return nil
	}
	var out []HandlerStat
	for k := HandlerKind(0); k < numHandlerKinds; k++ {
		if p.counts[k] == 0 {
			continue
		}
		st := HandlerStat{
			Kind:    k,
			Events:  p.counts[k],
			Wall:    p.wall[k],
			Sampled: p.sampled[k],
			EstWall: p.wall[k],
		}
		if st.Sampled > 0 {
			st.EstWall = time.Duration(float64(st.Wall) * float64(st.Events) / float64(st.Sampled))
		}
		out = append(out, st)
	}
	return out
}

// SetProfiler attaches (or, with nil, detaches) the event-loop profiler.
// When detached the event loop pays exactly one nil check per event and
// MarkHandler is a nil check per call.
func (s *Scheduler) SetProfiler(p *LoopProfiler) { s.prof = p }

// MarkHandler attributes the currently executing event to kind k. Handlers
// call it first thing in the callback; it is a single nil check when no
// profiler is attached and must not be called from outside an event.
func (s *Scheduler) MarkHandler(k HandlerKind) {
	if s.prof != nil {
		s.prof.cur = k
	}
}
