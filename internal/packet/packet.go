// Package packet defines the data units that traverse the simulated network:
// data packets (optionally carrying a piggybacked Corelite marker or a CSFQ
// label) and the flow identity they belong to.
//
// Corelite's marker packets are "logically distinct though ... physically
// piggybacked to a data packet" (paper §2.2); we model them exactly that way:
// every N_w-th data packet of a flow carries a marker with the flow's
// normalized rate, so markers consume no extra bandwidth and experience the
// same per-hop delays as the data they ride on.
package packet

import (
	"fmt"
	"time"
)

// FlowID identifies an edge-to-edge flow uniquely within the network cloud.
// Per the paper, "the contents of the marker identify the packet flow to
// which it corresponds uniquely within the edge router", so the pair
// (ingress edge, local id) is globally unique.
type FlowID struct {
	// Edge is the name of the ingress edge router that controls the flow.
	Edge string
	// Local is the flow's identifier within that edge router.
	Local int
}

// String renders the id as "edge/local".
func (f FlowID) String() string { return fmt.Sprintf("%s/%d", f.Edge, f.Local) }

// Marker is the Corelite marker piggybacked on a data packet. The source
// address of the marker is the edge router that generated it, and the label
// is the flow's normalized rate r_n = b_g / w at injection time (used by the
// cache-less selective feedback of paper §3.2).
type Marker struct {
	Flow FlowID
	// Rate is the labelled normalized rate r_n in packets per second.
	Rate float64

	// owner is the Pool that allocated this marker (nil for plain
	// allocation). It lets the pool reclaim the marker when the carrying
	// packet is released.
	owner *Pool
}

// Kind distinguishes payload packets from transport acknowledgements
// (used by the end-host TCP-like agents; the QoS schemes only shape and
// mark data packets).
type Kind int

// Packet kinds. KindData is the zero value: every packet is data unless
// explicitly marked otherwise.
const (
	KindData Kind = iota
	KindAck
)

// AckSizeBytes is the size of a transport acknowledgement.
const AckSizeBytes = 40

// Packet is a single data packet in flight.
//
// Packets are created by edge routers and released when they reach the sink
// or are dropped — either back to the Pool that allocated them or implicitly
// to the garbage collector (plain New). Either way the struct may be
// recycled immediately after release, so routers and apps must not retain
// references after forwarding; see Pool for the full ownership contract.
type Packet struct {
	// Kind distinguishes data from transport acknowledgements.
	Kind Kind
	// Flow identifies the edge-to-edge flow the packet belongs to.
	Flow FlowID
	// Dst is the name of the egress node the packet is routed to.
	Dst string
	// Route and Hop are the network's forwarding state for the packet: the
	// handle of the link path Dst resolves to from the node that injected
	// it, resolved once at injection, and the index on that path of the
	// next link to take. A node forwards on the route's link Hop; the
	// packet has reached Dst when Hop runs off the end. Both are rewritten
	// at every injection (a packet re-injected into another cloud resolves
	// again there); model and application code never sets or reads them.
	Route uint32
	Hop   uint32
	// SizeBytes is the packet length. The paper's evaluation uses a fixed
	// 1000-byte packet everywhere.
	SizeBytes int
	// Seq is the per-flow sequence number (0-based).
	Seq int64
	// SentAt is the virtual time the ingress edge emitted the packet.
	SentAt time.Duration
	// EnqueuedAt is the virtual time the packet entered its current link's
	// output queue. It is stamped only when the link's queue-wait histogram
	// is attached (observability on) and is otherwise stale; nothing but
	// that instrument reads it.
	EnqueuedAt time.Duration

	// Marker, when non-nil, is the piggybacked Corelite marker.
	Marker *Marker

	// Label is the CSFQ label: the flow's estimated normalized rate in
	// packets per second. Zero for schemes that do not label. Core CSFQ
	// routers may relabel (lower) it at each congested link.
	Label float64

	// owner is the Pool that allocated this packet; nil for plain New
	// packets, which a pool treats as foreign and leaves to the garbage
	// collector.
	owner *Pool
	// free marks a packet currently on its owner's free list, so a double
	// release is detected instead of corrupting the list.
	free bool
}

// DefaultSizeBytes is the packet size used throughout the paper's
// evaluation (1 KB).
const DefaultSizeBytes = 1000

// New returns a data packet for flow f addressed to dst with the default
// evaluation packet size.
func New(f FlowID, dst string, seq int64, sentAt time.Duration) *Packet {
	return &Packet{
		Flow:      f,
		Dst:       dst,
		SizeBytes: DefaultSizeBytes,
		Seq:       seq,
		SentAt:    sentAt,
	}
}
