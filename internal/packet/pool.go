package packet

import "time"

// PoolStats aggregates a pool's lifetime counters. The invariant checker
// reads them: a double release is a structured violation, and the live count
// (Gets − Released) can never legally fall below the number of pooled
// packets still inside the network.
type PoolStats struct {
	// Allocated counts fresh heap allocations (free list empty on Get).
	Allocated int64
	// Recycled counts Gets served from the free list.
	Recycled int64
	// Released counts packets accepted back into the pool.
	Released int64
	// DoubleReleased counts Puts of packets already on the free list —
	// always a bug in the caller; the packet is left untouched so the first
	// release stays valid.
	DoubleReleased int64
	// Foreign counts Puts of packets this pool does not own (created by
	// plain New or owned by another pool). They are ignored and left to the
	// garbage collector, which keeps release points safe to call on any
	// packet.
	Foreign int64
	// MarkerAllocated / MarkerRecycled / MarkerReleased are the marker
	// free-list counterparts.
	MarkerAllocated int64
	MarkerRecycled  int64
	MarkerReleased  int64
}

// Gets reports the total packets handed out.
func (s PoolStats) Gets() int64 { return s.Allocated + s.Recycled }

// Live reports the packets currently held by callers (handed out and not
// yet released).
func (s PoolStats) Live() int64 { return s.Gets() - s.Released }

// Pool is a per-run free list for Packets and their piggybacked Markers.
// The simulation is single-threaded, so the pool needs no locking; one pool
// belongs to exactly one run (the Network owns it).
//
// Ownership rules (see also the Packet doc comment):
//
//   - Sources allocate with Get/GetMarker. The packet travels the network
//     exactly as an ordinary one.
//   - The network releases the packet at its sink (after the destination
//     App's synchronous Receive) and at every drop point (after the drop
//     listeners run). Model code never calls Put on in-flight packets.
//   - Routers and apps must not retain a *Packet (or its *Marker) after the
//     forwarding/receive call returns: the struct is recycled and its
//     contents will be overwritten. Copy the fields instead.
//
// A nil *Pool is valid: Get falls back to plain allocation and Put is a
// no-op, so test and tool code can run pool-free.
type Pool struct {
	free       []*Packet
	markerFree []*Marker
	stats      PoolStats
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Stats returns a copy of the counters (zero value for a nil pool).
func (pl *Pool) Stats() PoolStats {
	if pl == nil {
		return PoolStats{}
	}
	return pl.stats
}

// Get returns a data packet for flow f addressed to dst with the default
// evaluation packet size, recycled from the free list when possible. All
// fields are reset exactly as New initializes them.
func (pl *Pool) Get(f FlowID, dst string, seq int64, sentAt time.Duration) *Packet {
	if pl == nil {
		return New(f, dst, seq, sentAt)
	}
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pl.stats.Recycled++
		p.free = false
	} else {
		p = &Packet{owner: pl}
		pl.stats.Allocated++
	}
	p.Kind = KindData
	p.Flow = f
	p.Dst = dst
	p.Route, p.Hop = 0, 0
	p.SizeBytes = DefaultSizeBytes
	p.Seq = seq
	p.SentAt = sentAt
	p.Marker = nil
	p.Label = 0
	return p
}

// GetMarker returns a marker from the marker free list (or a fresh one for
// a nil pool).
func (pl *Pool) GetMarker(f FlowID, rate float64) *Marker {
	if pl == nil {
		return &Marker{Flow: f, Rate: rate}
	}
	var m *Marker
	if n := len(pl.markerFree); n > 0 {
		m = pl.markerFree[n-1]
		pl.markerFree[n-1] = nil
		pl.markerFree = pl.markerFree[:n-1]
		pl.stats.MarkerRecycled++
	} else {
		m = &Marker{owner: pl}
		pl.stats.MarkerAllocated++
	}
	m.Flow = f
	m.Rate = rate
	return m
}

// Put releases a packet (and its attached marker) back to the pool. Safe to
// call on any packet: foreign packets (plain New, or another pool's) are
// counted and ignored, double releases are counted and ignored, nil pools
// and nil packets are no-ops.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if p.owner != pl {
		pl.stats.Foreign++
		return
	}
	if p.free {
		pl.stats.DoubleReleased++
		return
	}
	if m := p.Marker; m != nil {
		p.Marker = nil
		if m.owner == pl {
			pl.stats.MarkerReleased++
			pl.markerFree = append(pl.markerFree, m)
		}
	}
	p.free = true
	pl.stats.Released++
	pl.free = append(pl.free, p)
}
