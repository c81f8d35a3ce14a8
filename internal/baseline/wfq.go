package baseline

import "repro/internal/packet"

// WFQ is a Weighted Fair Queueing discipline — the state-intensive
// Intserv-style scheduler the paper contrasts core-stateless designs
// against (§1: weighted rate fairness "has been previously used in
// state-intensive Intserv-like networks"). It maintains a queue and a
// virtual finish time per flow (exactly the per-flow state Corelite
// eliminates) and serves packets in finish-time order, which yields exact
// weighted max-min shares among backlogged flows at a single link.
//
// The implementation is classic virtual-clock WFQ with packet-count
// service (all evaluation packets are the same size): a flow's packet is
// stamped F = max(V, F_prev) + 1/w, and the scheduler always serves the
// smallest stamp.
type WFQ struct {
	capacity int
	// weightOf resolves a flow's weight; unknown flows default to 1.
	weightOf func(packet.FlowID) float64

	flows  map[packet.FlowID]*wfqFlow
	pq     wfqHeap
	vtime  float64
	length int
	seq    uint64
}

type wfqFlow struct {
	queue  []*packet.Packet
	finish float64 // finish time of the head-of-line packet
	weight float64
	index  int // position in the heap, -1 when not backlogged
	seq    uint64
	id     packet.FlowID
}

// NewWFQ returns a WFQ queue holding at most capacity packets in total.
// weightOf supplies per-flow weights (nil = all weights 1).
func NewWFQ(capacity int, weightOf func(packet.FlowID) float64) *WFQ {
	if capacity <= 0 {
		capacity = 1
	}
	return &WFQ{
		capacity: capacity,
		weightOf: weightOf,
		flows:    make(map[packet.FlowID]*wfqFlow),
	}
}

// ActiveFlows reports the number of flows with packets queued — the
// per-flow state the paper's design goal rules out at the core.
func (w *WFQ) ActiveFlows() int { return len(w.flows) }

// Enqueue implements netem.Discipline. On overflow, WFQ applies
// drop-from-longest-queue buffer management: the arriving packet evicts
// the tail of the most backlogged flow (or is itself rejected when its
// own flow holds the longest queue). Without per-flow buffer sharing, a
// fair scheduler degenerates to tail-drop admission under persistent
// overload and the weighted shares are lost.
func (w *WFQ) Enqueue(p *packet.Packet) bool {
	if w.length >= w.capacity {
		longest := w.longestFlow()
		if longest == nil || longest.id == p.Flow {
			return false
		}
		w.evictTail(longest)
	}
	f, ok := w.flows[p.Flow]
	if !ok {
		weight := 1.0
		if w.weightOf != nil {
			if v := w.weightOf(p.Flow); v > 0 {
				weight = v
			}
		}
		f = &wfqFlow{weight: weight, index: -1, id: p.Flow}
		w.flows[p.Flow] = f
	}
	f.queue = append(f.queue, p)
	w.length++
	if f.index < 0 {
		// Newly backlogged: stamp the head against the virtual clock.
		f.finish = w.vtime + 1/f.weight
		f.seq = w.seq
		w.seq++
		w.pq.push(f)
	}
	return true
}

// Dequeue implements netem.Discipline.
func (w *WFQ) Dequeue() *packet.Packet {
	if len(w.pq) == 0 {
		return nil
	}
	f := w.pq.remove(0)
	p := f.queue[0]
	f.queue[0] = nil
	f.queue = f.queue[1:]
	w.length--
	// Advance the virtual clock to the served packet's finish time.
	if f.finish > w.vtime {
		w.vtime = f.finish
	}
	if len(f.queue) > 0 {
		f.finish += 1 / f.weight
		f.seq = w.seq
		w.seq++
		w.pq.push(f)
	} else {
		delete(w.flows, f.id)
	}
	return p
}

// Len implements netem.Discipline.
func (w *WFQ) Len() int { return w.length }

// longestFlow returns the flow with the largest per-packet-weighted
// backlog (ties broken by insertion order via the map-free heap scan).
func (w *WFQ) longestFlow() *wfqFlow {
	var longest *wfqFlow
	for _, f := range w.pq {
		if longest == nil || len(f.queue) > len(longest.queue) {
			longest = f
		}
	}
	return longest
}

// evictTail removes the last queued packet of f (never the head, whose
// finish stamp is already in the heap).
func (w *WFQ) evictTail(f *wfqFlow) {
	n := len(f.queue)
	if n == 0 {
		return
	}
	if n == 1 {
		// Head-of-line is the only packet: remove the flow entirely.
		w.pq.remove(f.index)
		delete(w.flows, f.id)
		w.length--
		return
	}
	f.queue[n-1] = nil
	f.queue = f.queue[:n-1]
	w.length--
}

// wfqHeap is a binary min-heap of backlogged flows ordered by (finish
// time, arrival sequence), each flow tracking its slot in index. It keeps
// container/heap's exact slot layout — longestFlow scans the slots in order,
// so the layout decides its ties — without boxing a flow per operation.
type wfqHeap []*wfqFlow

func (h wfqHeap) less(a, b *wfqFlow) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.seq < b.seq
}

// set places f at slot i.
func (h wfqHeap) set(i int, f *wfqFlow) {
	h[i] = f
	f.index = i
}

func (h *wfqHeap) push(f *wfqFlow) {
	*h = append(*h, f)
	h.up(len(*h) - 1)
}

// remove takes the flow at slot i out of the heap.
func (h *wfqHeap) remove(i int) *wfqFlow {
	old := *h
	n := len(old) - 1
	f := old[i]
	if i != n {
		old.set(i, old[n])
		if !old[:n].down(i) {
			old.up(i)
		}
	}
	old[n] = nil
	*h = old[:n]
	f.index = -1
	return f
}

// up moves the flow at slot i toward the root to its place.
func (h wfqHeap) up(i int) {
	f := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(f, h[parent]) {
			break
		}
		h.set(i, h[parent])
		i = parent
	}
	h.set(i, f)
}

// down moves the flow at slot i toward the leaves to its place and reports
// whether it moved.
func (h wfqHeap) down(i0 int) bool {
	f := h[i0]
	i := i0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h.less(h[r], h[child]) {
			child = r
		}
		if !h.less(h[child], f) {
			break
		}
		h.set(i, h[child])
		i = child
	}
	h.set(i, f)
	return i > i0
}
