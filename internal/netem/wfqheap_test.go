package netem

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap reference wfqHeap must match slot for slot.
type refHeap []*wfqFlow

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	f := x.(*wfqFlow)
	f.index = len(*h)
	*h = append(*h, f)
}
func (h *refHeap) Pop() any {
	old := *h
	f := old[len(old)-1]
	f.index = -1
	*h = old[:len(old)-1]
	return f
}

// TestWFQHeapMatchesContainerHeap drives the typed heap and a container/heap
// reference through the same random pushes, pops and removals and demands
// the same flow in every slot after every step: WFQ's longest-queue scan
// reads the slots in order, so the layout, not just the pop order, is
// behaviour.
func TestWFQHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var got wfqHeap
	var ref refHeap
	// Twin flows: got's entries and ref's entries carry their own index.
	type twin struct{ a, b *wfqFlow }
	var live []twin
	var seq uint64
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(4); {
		case op < 2 || len(live) == 0:
			finish := float64(rng.Intn(8)) // many ties on finish
			a := &wfqFlow{finish: finish, seq: seq}
			b := &wfqFlow{finish: finish, seq: seq}
			seq++
			got.push(a)
			heap.Push(&ref, b)
			live = append(live, twin{a, b})
		case op == 2:
			a := got.remove(0)
			b := heap.Pop(&ref).(*wfqFlow)
			if a.seq != b.seq {
				t.Fatalf("step %d: pop returned seq %d, reference %d", step, a.seq, b.seq)
			}
			for i := range live {
				if live[i].a == a {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		default:
			k := rng.Intn(len(live))
			tw := live[k]
			got.remove(tw.a.index)
			heap.Remove(&ref, tw.b.index)
			live = append(live[:k], live[k+1:]...)
		}
		if len(got) != len(ref) {
			t.Fatalf("step %d: %d flows, reference %d", step, len(got), len(ref))
		}
		for i := range got {
			if got[i].seq != ref[i].seq || got[i].index != i {
				t.Fatalf("step %d slot %d: seq %d index %d, reference seq %d", step, i, got[i].seq, got[i].index, ref[i].seq)
			}
		}
	}
}
