// Package netem is the packet-level network substrate: queue disciplines,
// rate/delay links, routing nodes, and a control plane for feedback
// messages. Together with package sim it plays the role ns-2 played in the
// paper's evaluation.
package netem

import "repro/internal/packet"

// Discipline is a queueing discipline attached to a link's output buffer.
// Implementations decide admission (Enqueue returning false means the packet
// is dropped) and service order.
type Discipline interface {
	// Enqueue offers p to the queue; it reports whether p was accepted.
	Enqueue(p *packet.Packet) bool
	// Dequeue removes and returns the next packet to transmit, or nil when
	// the queue is empty.
	Dequeue() *packet.Packet
	// Len reports the number of packets currently waiting.
	Len() int
}

// pktRing is a FIFO over a power-of-two circular buffer: the building block
// of the bounded disciplines. It starts empty and doubles when full, so an
// idle or lightly loaded link holds no buffer sized for the worst case; the
// discipline above it enforces the capacity. A sliding []*packet.Packet
// window would reallocate its backing array every capacity-th packet under
// steady backlog; the ring stops allocating once it has grown to the peak
// backlog.
type pktRing struct {
	buf  []*packet.Packet
	head int
	n    int
}

func (r *pktRing) push(p *packet.Packet) {
	if r.n == len(r.buf) {
		buf := make([]*packet.Packet, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *pktRing) pop() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// DropTail is a bounded FIFO queue that drops arrivals when full — the
// discipline used at every router in the paper's evaluation (queue size 40
// packets).
type DropTail struct {
	capacity int
	ring     pktRing
}

var _ Discipline = (*DropTail)(nil)

// NewDropTail returns a FIFO queue holding at most capacity packets.
// Capacity must be positive.
func NewDropTail(capacity int) *DropTail {
	if capacity <= 0 {
		capacity = 1
	}
	return &DropTail{capacity: capacity}
}

// Capacity reports the maximum number of waiting packets.
func (d *DropTail) Capacity() int { return d.capacity }

// Enqueue implements Discipline.
func (d *DropTail) Enqueue(p *packet.Packet) bool {
	if d.ring.n >= d.capacity {
		return false
	}
	d.ring.push(p)
	return true
}

// Dequeue implements Discipline.
func (d *DropTail) Dequeue() *packet.Packet { return d.ring.pop() }

// Len implements Discipline.
func (d *DropTail) Len() int { return d.ring.n }
