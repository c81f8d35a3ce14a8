package sim

// heapQueue is the calendar's overflow store: a specialized 4-ary min-heap
// over inline pointer-free entries ordered by (at, seq), holding the events
// scheduled beyond the current rotation window.
//
// A 4-ary layout halves the tree height of a binary heap; with 24-byte
// entries the four children of a node span at most two cache lines, so the
// extra comparisons per level are cheaper than the levels they save.
type heapQueue struct {
	es []entry
}

const heapArity = 4

// push inserts e, sliding parents down a hole so e is written once at its
// final slot.
func (q *heapQueue) push(e entry) {
	q.es = append(q.es, e)
	h := q.es
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !less(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// dropMin removes the root entry: the last entry sinks from the root until
// no child is smaller, with the same hole technique.
func (q *heapQueue) dropMin() {
	n := len(q.es) - 1
	e := q.es[n]
	q.es = q.es[:n]
	if n == 0 {
		return
	}
	h := q.es
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		end := first + heapArity
		if end > n {
			end = n
		}
		min := first
		for c := first + 1; c < end; c++ {
			if less(&h[c], &h[min]) {
				min = c
			}
		}
		if !less(&h[min], &e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}
