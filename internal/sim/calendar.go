package sim

import (
	"math"
	"math/bits"
)

// Calendar geometry. The wheel sizes itself each time its window restarts
// (see restart): the bucket width becomes the power of two nearest below
// bucketLoad mean event separations, so a bucket surfaces holding a few
// entries at any density, and the bucket count makes the window span
// windowSpans mean residence times (Little's law: resident count × mean
// separation), so nearly every event is pushed straight into its bucket
// rather than through the overflow heap. The first window, before any
// separation has been observed, uses the initial geometry. Geometry affects
// cost only: every geometry yields the same event order.
const (
	initialShift   = 20 // 2^20 ns ≈ 1 ms buckets
	initialBuckets = 256
	bucketLoad     = 8
	windowSpans    = 32
	minBuckets     = 16
	maxBuckets     = 1 << 18
	maxShift       = 40 // 2^40 ns ≈ 18 min buckets
	// overfull is the surfacing-bucket size past which the wheel re-sizes
	// at once instead of when the window drains: a density jump mid-window
	// would otherwise sort and insert into crowded buckets until the window
	// ends.
	overfull = 16 * bucketLoad
)

// calendarQueue is a calendar queue (R. Brown, CACM 1988) adapted to this
// scheduler's contract: an exact (at, seq) total order. Events within the
// current rotation window hash by timestamp into a ring of buckets; a bucket
// is sorted only when the wheel reaches it, and later arrivals into the
// bucket being consumed are inserted in order so the front of the queue is
// always the true minimum. Events beyond the rotation horizon wait in an
// overflow heap; when the window has drained it restarts on the earliest of
// them, under a geometry derived from the window just consumed.
//
// Bucket storage follows the resident events, not the traffic that passed
// through: the consumed prefix of the bucket being drained is reclaimed
// before that bucket may grow, a bucket the wheel has left parks its backing
// array for the next bucket that needs one, and arrays come in size classes
// so that each one serves buckets of its own size.
type calendarQueue struct {
	rotStart Time        // left edge of the current rotation window
	buckets  [][]entry   // bucket i covers [rotStart+i<<shift, rotStart+(i+1)<<shift); nil until first use
	spare    [][]entry   // parked backing arrays, on per-class stacks; a slot is nil while free
	stacks   *spareIndex // the class stacks over spare; built with the wheel
	cur      int         // wheel position: buckets below cur are consumed/empty
	pos      int         // consumed prefix of buckets[cur]
	count    int         // entries resident in buckets
	consumed int         // entries consumed since the window restarted
	overflow heapQueue   // events at or beyond the horizon
	nbuckets int32       // bucket count of the next window
	shift    uint8       // bucket width is 1<<shift ns
	pinned   bool        // geometry fixed by newScheduler; never re-derived
	sorted   bool        // whether buckets[cur] is currently in (at, seq) order
}

// horizon is the first timestamp past the current rotation window. Before
// the wheel exists, and after a spill, the window is empty, so every push
// lands in overflow and an idle scheduler costs nothing to build.
func (q *calendarQueue) horizon() Time {
	return q.rotStart + Time(len(q.buckets))<<q.shift
}

func (q *calendarQueue) push(e entry) {
	if e.at >= q.horizon() {
		q.overflow.push(e)
		return
	}
	if e.at < q.rotStart {
		// The window was fast-forwarded across an idle gap and a new event
		// now lands inside that gap. This can only happen from outside a
		// callback (during one, now ≥ rotStart bounds every new event), so
		// no in-flight cursor state exists: hand the wheel back to the
		// overflow heap and let the next peek restart on this event.
		q.spill()
		q.overflow.push(e)
		return
	}
	b := int(uint64(e.at-q.rotStart) >> q.shift)
	if b < q.cur {
		// The wheel coasted past b's (then-empty) bucket while draining
		// ahead of the clock; rewind to it. This cannot happen from inside
		// a callback — the executing entry holds the wheel at its own
		// bucket and new events sort at or after now — so no in-flight
		// cursor state is disturbed. Compact the consumed prefix out of the
		// bucket the wheel is leaving first: pos resets to 0, and a later
		// scan of that bucket must not replay entries that already fired.
		q.compact()
		q.cur, q.sorted = b, true
	}
	bk := q.buckets[b]
	if len(bk) == cap(bk) {
		// Reclaim the consumed prefix of the bucket being drained before
		// it would grow, so its array settles at the bucket's peak
		// residency.
		if b == q.cur && q.pos > 0 {
			q.compact()
			bk = q.buckets[b]
		}
		if len(bk) == cap(bk) {
			bk = q.grow(b)
		}
	}
	i := len(bk)
	bk = append(bk, e)
	if b == q.cur && q.sorted {
		// Keep the consuming bucket ordered: insert into the unconsumed
		// tail (everything before pos has already fired), shifting later
		// entries up from the end.
		for ; i > q.pos && less(&e, &bk[i-1]); i-- {
			bk[i] = bk[i-1]
		}
		bk[i] = e
	}
	q.buckets[b] = bk
	q.count++
}

// compact drops the consumed prefix of the current bucket.
func (q *calendarQueue) compact() {
	bk := q.buckets[q.cur]
	q.buckets[q.cur] = bk[:copy(bk, bk[q.pos:])]
	q.pos = 0
}

// peek surfaces the earliest entry, advancing the wheel as needed. The
// returned pointer is valid until the next queue operation; dropMin acts on
// exactly this entry.
func (q *calendarQueue) peek() (*entry, bool) {
	for {
		if q.count == 0 {
			if len(q.overflow.es) == 0 {
				return nil, false
			}
			q.restart()
		}
		// count > 0: an unconsumed entry sits in some bucket at or after
		// cur, so the scan below stops before the end of the ring.
		bk := q.buckets[q.cur]
		if q.pos >= len(bk) {
			q.retire(q.cur)
			q.cur++
			q.pos, q.sorted = 0, false
			continue
		}
		if !q.sorted {
			// Nothing of this bucket has fired yet (pos is 0). A bucket far
			// over its load means the density rose since the geometry was
			// derived: size the buckets to this one's density and restart
			// now rather than sort it. One bucket is a rough sample, so the
			// window is a quarter as long and the next restart measures a
			// whole window sooner. A burst of equal timestamps cannot be
			// split, so the width stops shrinking at 1 ns.
			if len(bk) > overfull && !q.pinned && q.shift > 0 {
				q.geometry(Time(1)<<q.shift, len(bk), windowSpans/4)
				q.spill()
				continue
			}
			sortEntries(bk)
			q.sorted = true
		}
		return &bk[q.pos], true
	}
}

// restart opens a new window on the earliest overflow event and pulls in
// everything it covers. Every pending event sits in the overflow heap at
// this moment, so re-sizing the wheel here moves nothing extra; the time
// from the last window's start to this one, over the events consumed in
// it, is the observed mean separation.
func (q *calendarQueue) restart() {
	start := q.overflow.es[0].at
	if len(q.buckets) > 0 {
		// The bucket the wheel stands in still holds its consumed prefix
		// (clearing normally happens when the scan moves past); drop it
		// now or the reset cursor would replay it.
		q.retire(q.cur)
	}
	if q.stacks == nil {
		q.stacks = &spareIndex{free: -1}
	}
	if !q.pinned && q.consumed > 0 && start > q.rotStart {
		q.geometry(start-q.rotStart, q.consumed, windowSpans)
	}
	q.release()
	q.layout(int(q.nbuckets))
	q.rotStart = start
	q.cur, q.pos, q.sorted, q.consumed = 0, 0, false, 0
	for hz := q.horizon(); len(q.overflow.es) > 0 && q.overflow.es[0].at < hz; {
		e := q.overflow.es[0]
		q.overflow.dropMin()
		q.push(e)
	}
}

// geometry sizes the next window for n events observed over span: buckets
// of the power of two nearest below bucketLoad mean separations, and enough
// of them to span the given number of mean residence times of the events
// now pending.
func (q *calendarQueue) geometry(span Time, n int, spans float64) {
	sep := float64(span) / float64(n)
	_, exp := math.Frexp(bucketLoad * sep) // bucketLoad·sep ∈ [2^(exp-1), 2^exp)
	shift := min(max(exp-1, 0), maxShift)
	q.shift = uint8(shift)
	pending := float64(q.count + len(q.overflow.es))
	nb := spans * pending * sep / math.Ldexp(1, shift)
	switch {
	case nb < minBuckets:
		q.nbuckets = minBuckets
	case nb >= maxBuckets:
		q.nbuckets = maxBuckets
	default:
		q.nbuckets = int32(nb) + 1
	}
}

// layout sizes the ring to nb buckets, parking the arrays of any bucket it
// drops. The ring's backing array is kept and grows by powers of two, so it
// follows the peak geometry without a reallocation per window.
func (q *calendarQueue) layout(nb int) {
	if nb > cap(q.buckets) {
		for b := range q.buckets {
			q.retire(b)
		}
		q.buckets = make([][]entry, nb, 1<<bits.Len(uint(nb-1)))
		return
	}
	for b := nb; b < len(q.buckets); b++ {
		q.retire(b)
	}
	q.buckets = q.buckets[:nb]
}

// spill hands every unconsumed wheel entry back to the overflow heap and
// empties the window, so the next peek restarts it on the earliest pending
// event under the geometry already set. It is only called from outside a
// callback.
func (q *calendarQueue) spill() {
	for b := q.cur; b < len(q.buckets); b++ {
		bk := q.buckets[b]
		if b == q.cur {
			bk = bk[q.pos:]
		}
		for _, e := range bk {
			q.overflow.push(e)
		}
		q.retire(b)
	}
	q.buckets = q.buckets[:0]
	q.count, q.consumed, q.cur, q.pos, q.sorted = 0, 0, 0, 0, false
}

// dropMin consumes the entry peek returned. Entries are pointer-free, so
// the consumed prefix needs no clearing.
func (q *calendarQueue) dropMin() {
	q.pos++
	q.count--
	q.consumed++
}

// sortEntries orders a bucket by (at, seq). Keys are unique (seq is), so
// stability is irrelevant; an insertion sort is used because buckets hold a
// few entries and this avoids sort.Slice's per-call closure allocation.
func sortEntries(es []entry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i
		for j > 0 && less(&e, &es[j-1]) {
			es[j] = es[j-1]
			j--
		}
		es[j] = e
	}
}

// Bucket arrays come in power-of-two size classes: a new bucket starts on an
// array of 1<<minClass entries, and a bucket that fills its array moves to
// one of the next class, parking the old one. Were arrays grown in place and
// recycled, each would drift up to the largest bucket it ever held, and a
// wheel of many small buckets would pin many large arrays.
const minClass = 3

// spareIndex threads the slots of calendarQueue.spare onto one stack per
// size class and a free-slot list.
type spareIndex struct {
	next []int32 // per spare slot: the next slot on its stack or free list
	tops []int32 // per class: top slot of its stack, or -1
	free int32   // first free slot, or -1
	peak int     // largest class taken since the last release
}

// class is the size class of an array of capacity c, a power of two.
func class(c int) int { return bits.Len(uint(c)) - 1 }

// take returns an empty array of class k, parked or new.
func (q *calendarQueue) take(k int) []entry {
	x := q.stacks
	x.peak = max(x.peak, k)
	if k < len(x.tops) {
		if i := x.tops[k]; i >= 0 {
			bk := q.spare[i]
			q.spare[i] = nil
			x.tops[k], x.next[i], x.free = x.next[i], x.free, i
			return bk
		}
	}
	return make([]entry, 0, 1<<k)
}

// park pushes bk's backing array onto its class stack.
func (q *calendarQueue) park(bk []entry) {
	x := q.stacks
	k := class(cap(bk))
	for len(x.tops) <= k {
		x.tops = append(x.tops, -1)
	}
	i := x.free
	if i < 0 {
		i = int32(len(q.spare))
		q.spare = append(q.spare, nil)
		x.next = append(x.next, -1)
	} else {
		x.free = x.next[i]
	}
	q.spare[i] = bk[:0]
	x.tops[k], x.next[i] = i, x.tops[k]
}

// release drops the parked arrays of every class more than one above the
// largest taken since the last release, so the arrays a denser past needed
// do not outlive it.
func (q *calendarQueue) release() {
	x := q.stacks
	for k := x.peak + 2; k < len(x.tops); k++ {
		for i := x.tops[k]; i >= 0; i = x.tops[k] {
			q.spare[i] = nil
			x.tops[k], x.next[i], x.free = x.next[i], x.free, i
		}
	}
	x.peak = 0
}

// retire empties bucket b and parks its backing array for reuse.
func (q *calendarQueue) retire(b int) {
	if bk := q.buckets[b]; cap(bk) > 0 {
		q.park(bk)
		q.buckets[b] = nil
	}
}

// grow moves bucket b's entries to an array of the next size class.
func (q *calendarQueue) grow(b int) []entry {
	old := q.buckets[b]
	if cap(old) == 0 {
		q.buckets[b] = q.take(minClass)
	} else {
		q.buckets[b] = append(q.take(class(cap(old))+1), old...)
		q.park(old)
	}
	return q.buckets[b]
}
