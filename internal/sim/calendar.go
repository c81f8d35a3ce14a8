package sim

import "sort"

// Calendar geometry. Figure-scale scenarios schedule most events within a
// few milliseconds of now (per-packet service times around 0.1–2ms,
// propagation around 1–10ms), so a 1ms × 256 wheel keeps one rotation —
// 256ms — comfortably ahead of the densest horizon while spreading the
// in-flight events over many buckets. Geometry affects cost only: every
// geometry yields the same event order.
const (
	calendarWidth   Time = 1e6 // 1ms
	calendarBuckets      = 256
)

// calendarQueue is a calendar queue (R. Brown, CACM 1988) adapted to this
// scheduler's contract: an exact (at, seq) total order. Events within the
// current rotation window hash by timestamp into a ring of buckets; a bucket
// is sorted only when the wheel reaches it, and later arrivals into the
// bucket being consumed are placed by binary search so the front of the
// queue is always the true minimum. Events beyond the rotation horizon wait
// in an overflow heap; when the window has drained it restarts on the
// earliest of them.
//
// Bucket storage follows the resident events, not the traffic that passed
// through: the consumed prefix of the bucket being drained is reclaimed
// before that bucket may grow, and a bucket the wheel has left hands its
// backing array to the next bucket that needs one.
type calendarQueue struct {
	width    Time
	nbuckets int
	rotStart Time      // left edge of the current rotation window
	buckets  [][]entry // bucket i covers [rotStart+i·width, rotStart+(i+1)·width); nil until first use
	spare    [][]entry // emptied backing arrays awaiting reuse
	cur      int       // wheel position: buckets below cur are consumed/empty
	pos      int       // consumed prefix of buckets[cur]
	sorted   bool      // whether buckets[cur] is currently in (at, seq) order
	count    int       // entries resident in buckets
	overflow heapQueue // events at or beyond rotStart + len(buckets)·width
}

// horizon is the first timestamp past the current rotation window. Before
// the wheel exists the window is empty, so every push lands in overflow and
// an idle scheduler costs nothing to build.
func (q *calendarQueue) horizon() Time {
	return q.rotStart + Time(len(q.buckets))*q.width
}

// retire empties bucket b and parks its backing array for reuse.
func (q *calendarQueue) retire(b int) {
	if bk := q.buckets[b]; cap(bk) > 0 {
		q.spare = append(q.spare, bk[:0])
		q.buckets[b] = nil
	}
}

func (q *calendarQueue) push(e entry) {
	if e.at >= q.horizon() {
		q.overflow.push(e)
		return
	}
	if e.at < q.rotStart {
		// The window was fast-forwarded across an idle gap and a new event
		// now lands inside that gap: rebase the wheel onto it. This can
		// only happen from outside a callback (during one, now ≥ rotStart
		// bounds every new event), so no in-flight cursor state exists.
		q.rebase(e.at)
	}
	b := int((e.at - q.rotStart) / q.width)
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
	if cap(bk) == 0 {
		if n := len(q.spare); n > 0 {
			bk, q.spare = q.spare[n-1], q.spare[:n-1]
		}
	}
	if b == q.cur && q.sorted {
		// Keep the consuming bucket ordered: binary-insert into the
		// unconsumed tail (everything before pos has already fired).
		// Reclaim that prefix before the slice would grow, so capacity
		// settles at the bucket's peak residency.
		if len(bk) == cap(bk) && q.pos > 0 {
			q.compact()
			bk = q.buckets[b]
		}
		i := q.pos + sort.Search(len(bk)-q.pos, func(i int) bool {
			return less(&e, &bk[q.pos+i])
		})
		bk = append(bk, entry{})
		copy(bk[i+1:], bk[i:])
		bk[i] = e
	} else {
		bk = append(bk, e)
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
			// The window is drained — at the end of a rotation or across an
			// idle gap alike — so restart it on the earliest overflow event
			// and pull in everything the new window covers. The bucket the
			// wheel stands in still holds its consumed prefix (clearing
			// normally happens when the scan moves past); drop it now or
			// the reset cursor would replay it.
			if q.buckets == nil {
				q.buckets = make([][]entry, q.nbuckets)
			} else {
				q.retire(q.cur)
			}
			q.rotStart = q.overflow.es[0].at
			q.cur, q.pos, q.sorted = 0, 0, false
			for hz := q.horizon(); len(q.overflow.es) > 0 && q.overflow.es[0].at < hz; {
				e := q.overflow.es[0]
				q.overflow.dropMin()
				q.push(e)
			}
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
			sortEntries(bk)
			q.sorted = true
		}
		return &bk[q.pos], true
	}
}

// rebase restarts the rotation window at start, re-pushing any resident
// bucket entries (they all lie at or after the old rotStart, so they re-land
// in later buckets or the overflow heap). Rare: only reachable when the
// window fast-forwarded past an idle gap and a new event then arrives inside
// the gap.
func (q *calendarQueue) rebase(start Time) {
	var resident []entry
	for b := q.cur; b < len(q.buckets); b++ {
		bk := q.buckets[b]
		if b == q.cur {
			bk = bk[q.pos:]
		}
		resident = append(resident, bk...)
		q.retire(b)
	}
	q.rotStart = start
	q.cur, q.pos, q.sorted = 0, 0, false
	q.count = 0
	for _, r := range resident {
		q.push(r)
	}
}

// dropMin consumes the entry peek returned. Entries are pointer-free, so
// the consumed prefix needs no clearing.
func (q *calendarQueue) dropMin() {
	q.pos++
	q.count--
}

// sortEntries orders a bucket by (at, seq). Keys are unique (seq is), so
// stability is irrelevant; an insertion sort is used because buckets are
// typically small and this avoids sort.Slice's per-call closure allocation.
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
