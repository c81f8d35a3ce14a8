// Package host implements end hosts running a TCP-Reno-like window
// protocol over the simulated network. The Corelite paper leaves
// "interaction between the edge router and end-host ... using agents like
// TCP" as ongoing work (§4.4, §6); this package provides that substrate:
// a window-based sender whose packets are policed by a Corelite edge's
// per-flow shaper, and a receiver that returns cumulative ACKs across the
// real reverse path.
//
// The protocol is deliberately Reno-shaped rather than a full TCP stack:
// slow start and congestion avoidance on cwnd, triple-duplicate-ACK fast
// retransmit with window halving, and an RTO (SRTT + 4·RTTVAR, Karn's
// rule, exponential backoff) that collapses the window to one segment.
package host

import (
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TCPConfig parameterizes a Sender.
type TCPConfig struct {
	// InitialCwnd is the initial window in segments (default 2).
	InitialCwnd float64
	// SSThresh is the initial slow-start threshold in segments
	// (default 64).
	SSThresh float64
	// MaxCwnd caps the window (receiver window), in segments
	// (default 128).
	MaxCwnd float64
	// SegmentBytes is the data segment size (default 1000, the paper's
	// packet size).
	SegmentBytes int
	// DupAckThresh triggers fast retransmit (default 3).
	DupAckThresh int
	// MinRTO floors the retransmission timeout (default 200ms).
	MinRTO time.Duration
	// MaxRTO caps the backed-off timeout (default 10s).
	MaxRTO time.Duration
}

// DefaultTCPConfig returns the defaults above.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		InitialCwnd:  2,
		SSThresh:     64,
		MaxCwnd:      128,
		SegmentBytes: packet.DefaultSizeBytes,
		DupAckThresh: 3,
		MinRTO:       200 * time.Millisecond,
		MaxRTO:       10 * time.Second,
	}
}

func (c TCPConfig) withDefaults() TCPConfig {
	def := DefaultTCPConfig()
	if c.InitialCwnd <= 0 {
		c.InitialCwnd = def.InitialCwnd
	}
	if c.SSThresh <= 0 {
		c.SSThresh = def.SSThresh
	}
	if c.MaxCwnd <= 0 {
		c.MaxCwnd = def.MaxCwnd
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = def.SegmentBytes
	}
	if c.DupAckThresh <= 0 {
		c.DupAckThresh = def.DupAckThresh
	}
	if c.MinRTO <= 0 {
		c.MinRTO = def.MinRTO
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = def.MaxRTO
	}
	return c
}

// Sender is a TCP-Reno-like source. Transmit hands segments to the path
// (typically a Corelite edge's Offer, or a node's Inject for unshaped
// runs); the receiver calls OnAck via the return path.
type Sender struct {
	sched *sim.Scheduler
	cfg   TCPConfig

	flow     packet.FlowID
	dst      string
	transmit func(*packet.Packet) bool
	pool     *packet.Pool

	cwnd     float64
	ssthresh float64
	nextSeq  int64 // next sequence to (re)send
	maxSent  int64 // highest sequence ever transmitted + 1
	sndUna   int64 // lowest unacknowledged sequence
	dupAcks  int
	inFast   bool
	recover  int64 // NewReno recovery point (highest seq sent at loss)

	srtt   time.Duration
	rttvar time.Duration
	hasRTT bool
	rto    time.Duration
	// rtoHid is the registered retransmission-timer handler. Re-arming
	// withdraws the pending timer the way workload.Pacer withdraws a
	// release: bumping rtoGen turns the queued entry into a no-op.
	rtoHid sim.HandlerID
	rtoGen uint32
	// Single timed segment for RTT sampling (Karn's rule: retransmitted
	// segments are never sampled; a timeout cancels the measurement).
	timedSeq int64
	timedAt  time.Duration

	active bool
}

// SenderConfig wires a Sender.
type SenderConfig struct {
	// Flow is the transport flow identity stamped on segments (the edge
	// re-stamps it for shaped flows).
	Flow packet.FlowID
	// Dst is the receiver's node name.
	Dst string
	// Transmit sends one segment toward the receiver, reporting false if
	// the segment was dropped locally (e.g. the edge shaping queue was
	// full). Dropped segments are recovered by the normal loss machinery.
	Transmit func(*packet.Packet) bool
	// TCP tunes the protocol (zero fields default).
	TCP TCPConfig
	// Pool, when non-nil, recycles transmitted segments (typically the
	// network's per-run pool); nil falls back to plain allocation.
	Pool *packet.Pool
}

// NewSender returns an inactive sender.
func NewSender(sched *sim.Scheduler, cfg SenderConfig) (*Sender, error) {
	if cfg.Transmit == nil {
		return nil, fmt.Errorf("host: sender needs a Transmit function")
	}
	if cfg.Dst == "" {
		return nil, fmt.Errorf("host: sender needs a destination")
	}
	s := &Sender{
		sched:    sched,
		cfg:      cfg.TCP.withDefaults(),
		flow:     cfg.Flow,
		dst:      cfg.Dst,
		transmit: cfg.Transmit,
		pool:     cfg.Pool,
		timedSeq: -1,
	}
	s.rtoHid = sched.RegisterHandler(s.onRTO)
	return s, nil
}

// Start begins transmission (the flow is backlogged: there is always data
// to send).
func (s *Sender) Start() {
	if s.active {
		return
	}
	s.active = true
	s.cwnd = s.cfg.InitialCwnd
	s.ssthresh = s.cfg.SSThresh
	s.rto = s.cfg.MinRTO
	s.fill()
	s.armRTO()
}

// Stop halts transmission.
func (s *Sender) Stop() {
	s.active = false
	s.rtoGen++
}

// fill transmits segments while the window allows. After a timeout,
// nextSeq rewinds to sndUna, so the same loop implements go-back-N
// recovery of the outstanding gap.
func (s *Sender) fill() {
	for s.active && float64(s.nextSeq-s.sndUna) < s.cwnd {
		s.send(s.nextSeq)
		s.nextSeq++
	}
}

func (s *Sender) send(seq int64) {
	p := s.pool.Get(s.flow, s.dst, seq, s.sched.Now())
	p.SizeBytes = s.cfg.SegmentBytes
	if seq < s.maxSent {
		// Karn's rule: cancel the RTT measurement if the timed segment
		// is being retransmitted.
		if seq == s.timedSeq {
			s.timedSeq = -1
		}
	} else {
		s.maxSent = seq + 1
		if s.timedSeq < 0 {
			s.timedSeq = seq
			s.timedAt = s.sched.Now()
		}
	}
	s.transmit(p)
}

// OnAck processes a cumulative acknowledgement: ackNum is the receiver's
// next expected sequence number.
func (s *Sender) OnAck(ackNum int64) {
	if !s.active {
		return
	}
	switch {
	case ackNum > s.sndUna:
		newly := ackNum - s.sndUna
		if s.timedSeq >= 0 && ackNum > s.timedSeq {
			s.sampleRTT(s.sched.Now() - s.timedAt)
			s.timedSeq = -1
		}
		s.sndUna = ackNum
		if s.nextSeq < ackNum {
			s.nextSeq = ackNum
		}
		s.dupAcks = 0
		switch {
		case s.inFast && ackNum < s.recover:
			// NewReno partial ACK: the next hole is lost too —
			// retransmit it immediately and stay in recovery.
			s.send(s.sndUna)
		case s.inFast:
			// Full ACK: leave fast recovery.
			s.inFast = false
			s.cwnd = s.ssthresh
		default:
			for i := int64(0); i < newly; i++ {
				if s.cwnd < s.ssthresh {
					s.cwnd++ // slow start
				} else {
					s.cwnd += 1 / s.cwnd // congestion avoidance
				}
			}
		}
		if s.cwnd > s.cfg.MaxCwnd {
			s.cwnd = s.cfg.MaxCwnd
		}
		s.rto = s.clampRTO(s.computeRTO())
		s.armRTO()
	case ackNum == s.sndUna && s.maxSent > s.sndUna:
		s.dupAcks++
		if !s.inFast && s.dupAcks == s.cfg.DupAckThresh {
			// Fast retransmit.
			s.ssthresh = s.halfWindow()
			s.cwnd = s.ssthresh
			s.inFast = true
			s.recover = s.maxSent
			s.send(s.sndUna)
			s.armRTO()
		} else if s.inFast {
			// Window inflation lets new data flow during recovery.
			s.cwnd++
		}
	}
	s.fill()
}

func (s *Sender) halfWindow() float64 {
	h := s.cwnd / 2
	if h < 2 {
		h = 2
	}
	return h
}

func (s *Sender) sampleRTT(sample time.Duration) {
	if !s.hasRTT {
		s.srtt = sample
		s.rttvar = sample / 2
		s.hasRTT = true
		return
	}
	// RFC 6298 smoothing with α=1/8, β=1/4.
	diff := s.srtt - sample
	if diff < 0 {
		diff = -diff
	}
	s.rttvar = (3*s.rttvar + diff) / 4
	s.srtt = (7*s.srtt + sample) / 8
}

func (s *Sender) computeRTO() time.Duration {
	if !s.hasRTT {
		return s.cfg.MinRTO * 4
	}
	return s.srtt + 4*s.rttvar
}

func (s *Sender) clampRTO(d time.Duration) time.Duration {
	if d < s.cfg.MinRTO {
		return s.cfg.MinRTO
	}
	if d > s.cfg.MaxRTO {
		return s.cfg.MaxRTO
	}
	return d
}

func (s *Sender) armRTO() {
	s.rtoGen++
	s.sched.PostHandler(s.rto, s.rtoHid, s.rtoGen)
}

// onRTO is the registered timer handler; gen is the generation the timer
// was armed with.
func (s *Sender) onRTO(gen uint32) {
	if gen != s.rtoGen || !s.active {
		return
	}
	if s.maxSent == s.sndUna {
		// Nothing outstanding; idle timer.
		s.armRTO()
		return
	}
	s.ssthresh = s.halfWindow()
	s.cwnd = 1
	s.dupAcks = 0
	s.inFast = false
	s.timedSeq = -1 // Karn: every outstanding segment is now suspect
	// Go-back-N: rewind and retransmit the outstanding gap as the window
	// reopens.
	s.nextSeq = s.sndUna
	s.rto = s.clampRTO(2 * s.rto) // exponential backoff
	s.armRTO()
	s.fill()
}

// Receiver consumes data segments at the far host and returns cumulative
// ACKs. Install it as the receiver node's App (or call Deliver directly).
type Receiver struct {
	sched *sim.Scheduler
	// sendAck returns an ACK packet toward the sender.
	sendAck func(*packet.Packet)
	// srcNode is the sender's node name (the ACK destination).
	srcNode string

	// Pool, when non-nil, recycles ACK packets; set it before traffic
	// starts (nil falls back to plain allocation).
	Pool *packet.Pool

	expected int64
	buffered map[int64]bool
}

// NewReceiver returns a receiver that acknowledges toward srcNode via
// sendAck (typically the receiver node's Inject).
func NewReceiver(sched *sim.Scheduler, srcNode string, sendAck func(*packet.Packet)) *Receiver {
	return &Receiver{
		sched:    sched,
		sendAck:  sendAck,
		srcNode:  srcNode,
		buffered: make(map[int64]bool),
	}
}

// Deliver processes one arriving data segment and emits a cumulative ACK.
func (r *Receiver) Deliver(p *packet.Packet) {
	if p.Kind != packet.KindData {
		return
	}
	switch {
	case p.Seq == r.expected:
		r.expected++
		for r.buffered[r.expected] {
			delete(r.buffered, r.expected)
			r.expected++
		}
	case p.Seq > r.expected:
		r.buffered[p.Seq] = true
	}
	ack := r.Pool.Get(p.Flow, r.srcNode, r.expected, r.sched.Now())
	ack.Kind = packet.KindAck
	ack.SizeBytes = packet.AckSizeBytes
	r.sendAck(ack)
}
