package netem

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Control is one control-plane message on its way to a flow's ingress edge:
// a Corelite marker feedback or a CSFQ loss notification.
type Control struct {
	// Flow is the flow's local id at the receiving edge.
	Flow int
	// Link is the id (Link.ID) of the core link a marker feedback reports
	// congestion on; a loss notification leaves it zero.
	Link int
	// Sent is the virtual time the message was sent; SendControl stamps it.
	Sent time.Duration
}

// ControlReceiver takes the control messages addressed to a node: an
// ingress edge's side of the control plane.
type ControlReceiver interface {
	// HandleControl is invoked when a message reaches the node.
	HandleControl(c Control)
}

// ctrlMsg is one message in flight: the receiving node's id and the
// message. It holds no pointers, so the arena costs the collector nothing.
type ctrlMsg struct {
	to uint32
	c  Control
}

// control is the network's control plane. Messages in flight sit in an
// index-addressed arena with a free list, and each one's scheduler entry is
// (ctrlHid, slot), so sending a message allocates nothing once the arena
// has grown to the number of messages in flight. The handler is registered
// by the first send (ctrlHid 0 is never a registered id), so a network that
// sends none, such as a cloud built only for the fluid engine's oracle,
// pays nothing for it.
type control struct {
	ctrlMsgs []ctrlMsg
	ctrlFree []uint32
	ctrlHid  sim.HandlerID
}

// SendControl delivers c to the control receiver of node to after the
// one-way propagation latency from -> to (see PathDelay). Control messages
// (Corelite marker feedback, CSFQ loss notifications) are tiny compared to
// 1KB data packets, so they are modelled as consuming no data-plane
// bandwidth while preserving exactly the path delay — see DESIGN.md §2. A
// message reaching a node with no receiver is discarded. It reports an
// error, and sends nothing, when either node is nil or of another network or
// to cannot be reached.
func (n *Network) SendControl(from, to *Node, c Control) error {
	if from == nil || to == nil || from.net != n || to.net != n {
		return fmt.Errorf("netem: control message between unknown nodes")
	}
	d, ok := n.delay(from, to)
	if !ok {
		return fmt.Errorf("netem: no path %s -> %s", from.name, to.name)
	}
	if n.ctrlHid == 0 {
		n.ctrlHid = n.sched.RegisterHandler(n.fireControl)
	}
	var slot uint32
	if k := len(n.ctrlFree); k > 0 {
		slot = n.ctrlFree[k-1]
		n.ctrlFree = n.ctrlFree[:k-1]
	} else {
		slot = uint32(len(n.ctrlMsgs))
		n.ctrlMsgs = append(n.ctrlMsgs, ctrlMsg{})
	}
	c.Sent = n.sched.Now()
	n.ctrlMsgs[slot] = ctrlMsg{to: to.id, c: c}
	n.sched.PostHandler(d, n.ctrlHid, slot)
	return nil
}

// fireControl delivers the message in slot and frees the slot first, so
// the receiver may send messages of its own.
func (n *Network) fireControl(slot uint32) {
	n.sched.MarkHandler(sim.KindControl)
	m := n.ctrlMsgs[slot]
	n.ctrlFree = append(n.ctrlFree, slot)
	if r := n.byID[m.to].ctrl; r != nil {
		r.HandleControl(m.c)
	}
}
