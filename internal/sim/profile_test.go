package sim

import (
	"testing"
	"time"
)

// TestNewLoopProfilerStride pins the stride rounding: powers of two pass
// through, other values round down, and values < 1 select the default.
func TestNewLoopProfilerStride(t *testing.T) {
	cases := map[int]uint64{
		1:   0,
		2:   1,
		3:   1,
		64:  63,
		100: 63,
		128: 127,
		0:   DefaultProfileStride - 1,
		-5:  DefaultProfileStride - 1,
	}
	for stride, mask := range cases {
		if p := NewLoopProfiler(stride); p.mask != mask {
			t.Errorf("NewLoopProfiler(%d).mask = %d, want %d", stride, p.mask, mask)
		}
	}
}

// TestProfilerAttribution runs a scheduler with a stride-1 profiler (every
// event timed) and checks exact per-kind counts, full sampling, and that
// untagged events land in KindOther.
func TestProfilerAttribution(t *testing.T) {
	s := NewScheduler()
	c := newClosures(s)
	p := NewLoopProfiler(1)
	s.SetProfiler(p)
	for i := 0; i < 5; i++ {
		c.at(Time(i), func() { s.MarkHandler(KindLinkTx) })
	}
	for i := 0; i < 3; i++ {
		c.at(Time(10+i), func() { s.MarkHandler(KindControl) })
	}
	c.at(20, func() {}) // untagged
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}

	stats := p.Snapshot()
	byKind := make(map[HandlerKind]HandlerStat, len(stats))
	for _, st := range stats {
		byKind[st.Kind] = st
	}
	if st := byKind[KindLinkTx]; st.Events != 5 || st.Sampled != 5 {
		t.Errorf("link-tx = %+v, want 5 events all sampled", st)
	}
	if st := byKind[KindControl]; st.Events != 3 {
		t.Errorf("control = %+v, want 3 events", st)
	}
	if st := byKind[KindOther]; st.Events != 1 {
		t.Errorf("other = %+v, want the 1 untagged event", st)
	}
	var total uint64
	for _, st := range stats {
		total += st.Events
		if st.Sampled != st.Events {
			t.Errorf("%v: sampled %d of %d at stride 1", st.Kind, st.Sampled, st.Events)
		}
		if st.EstWall != st.Wall {
			t.Errorf("%v: EstWall %v != Wall %v with full sampling", st.Kind, st.EstWall, st.Wall)
		}
	}
	if total != s.Processed() {
		t.Errorf("profile attributes %d events, scheduler processed %d", total, s.Processed())
	}
}

// TestProfilerStridedSampling checks the strided clock: with stride 4 only
// every fourth event is timed, while counting stays exact.
func TestProfilerStridedSampling(t *testing.T) {
	s := NewScheduler()
	c := newClosures(s)
	p := NewLoopProfiler(4)
	s.SetProfiler(p)
	const n = 16
	for i := 0; i < n; i++ {
		c.at(Time(i), func() { s.MarkHandler(KindSource) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	stats := p.Snapshot()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v, want one kind", stats)
	}
	st := stats[0]
	if st.Kind != KindSource || st.Events != n {
		t.Errorf("stat = %+v, want %d source events", st, n)
	}
	if st.Sampled != n/4 {
		t.Errorf("sampled %d of %d, want every 4th", st.Sampled, n)
	}
}

// TestProfilerEstWallExtrapolation pins the extrapolation arithmetic on a
// hand-built profiler: EstWall = Wall × Events ⁄ Sampled.
func TestProfilerEstWallExtrapolation(t *testing.T) {
	p := NewLoopProfiler(1)
	p.counts[KindLinkTx] = 100
	p.wall[KindLinkTx] = 2 * time.Millisecond
	p.sampled[KindLinkTx] = 10
	stats := p.Snapshot()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if got, want := stats[0].EstWall, 20*time.Millisecond; got != want {
		t.Errorf("EstWall = %v, want %v", got, want)
	}

	// Nothing sampled: the estimate degrades to the measured zero rather
	// than dividing by zero.
	p2 := NewLoopProfiler(1)
	p2.counts[KindControl] = 3
	if st := p2.Snapshot()[0]; st.EstWall != 0 || st.Sampled != 0 {
		t.Errorf("unsampled stat = %+v, want zero wall", st)
	}
}

// TestProfilerDetached verifies nil-profiler safety: MarkHandler and the
// event loop run unchanged with no profiler attached, and a nil profiler
// snapshots to nil.
func TestProfilerDetached(t *testing.T) {
	s := NewScheduler()
	if s.Profiler() != nil {
		t.Error("fresh scheduler has a profiler")
	}
	newClosures(s).at(0, func() { s.MarkHandler(KindLinkTx) })
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	var p *LoopProfiler
	if p.Snapshot() != nil {
		t.Error("nil profiler Snapshot not nil")
	}
}

// TestHandlerKindString covers the display names including the
// out-of-range fallback.
func TestHandlerKindString(t *testing.T) {
	want := map[HandlerKind]string{
		KindOther:        "other",
		KindLinkTx:       "link-tx",
		KindLinkProp:     "link-prop",
		KindSource:       "source",
		KindControl:      "control",
		KindMeasure:      "measure",
		HandlerKind(200): "other",
	}
	for k, name := range want {
		if got := k.String(); got != name {
			t.Errorf("HandlerKind(%d).String() = %q, want %q", k, got, name)
		}
	}
}
