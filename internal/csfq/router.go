package csfq

import (
	"math"
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// RouterConfig parameterizes a CSFQ core router.
type RouterConfig struct {
	// K is the averaging constant for the per-link arrival/acceptance
	// rate estimates (paper: 100 ms).
	K time.Duration
	// KLink is the window length for fair-share (α) updates (the paper's
	// K_link, 100 ms).
	KLink time.Duration
	// PacketSizeBytes converts link bandwidth to packets/second (1000).
	PacketSizeBytes int
	// OverflowDecay shrinks α by this fraction on every buffer overflow,
	// as in Stoica's implementation (default 0.01).
	OverflowDecay float64
}

// DefaultRouterConfig returns the paper's CSFQ settings (K = K_link =
// 100 ms).
func DefaultRouterConfig() RouterConfig {
	return RouterConfig{
		K:               100 * time.Millisecond,
		KLink:           100 * time.Millisecond,
		PacketSizeBytes: packet.DefaultSizeBytes,
		OverflowDecay:   0.01,
	}
}

// RouterStats aggregates counters over a router's links.
type RouterStats struct {
	// Arrived counts data packets offered to the router's links.
	Arrived int64
	// DroppedEarly counts probabilistic (fair-share) drops.
	DroppedEarly int64
	// Relabelled counts packets whose label was lowered to α.
	Relabelled int64
}

// Router is a weighted CSFQ core router: per-link fair-share estimation and
// probabilistic dropping, no per-flow state.
type Router struct {
	net  *netem.Network
	node *netem.Node
	cfg  RouterConfig
	rng  *sim.RNG

	links map[*netem.Link]*linkState
	stats RouterStats

	// Observability (all inert when the network has no registry attached).
	obs             *obs.Registry
	ctrArrived      *obs.Counter
	ctrDroppedEarly *obs.Counter
	ctrRelabelled   *obs.Counter
}

var _ netem.Forwarder = (*Router)(nil)

type linkState struct {
	name     string
	capacity float64 // pkt/s

	// Exponentially averaged arrival (A) and acceptance (F) rates.
	arrRate  float64
	accRate  float64
	lastArr  time.Duration
	hasArr   bool
	lastAcc  time.Duration
	hasAcc   bool
	alpha    float64
	congest  bool
	winStart time.Duration
	tmpAlpha float64 // max label in the current uncongested window
}

// NewRouter attaches CSFQ behaviour to every outgoing link of node.
func NewRouter(net *netem.Network, node *netem.Node, cfg RouterConfig, rng *sim.RNG) *Router {
	if cfg.K <= 0 {
		cfg.K = 100 * time.Millisecond
	}
	if cfg.KLink <= 0 {
		cfg.KLink = 100 * time.Millisecond
	}
	if cfg.PacketSizeBytes <= 0 {
		cfg.PacketSizeBytes = packet.DefaultSizeBytes
	}
	if cfg.OverflowDecay <= 0 {
		cfg.OverflowDecay = 0.01
	}
	r := &Router{
		net:   net,
		node:  node,
		cfg:   cfg,
		rng:   rng,
		links: make(map[*netem.Link]*linkState),
	}
	r.obs = net.Obs()
	r.ctrArrived = r.obs.Counter("csfq/" + node.Name() + "/arrived")
	r.ctrDroppedEarly = r.obs.Counter("csfq/" + node.Name() + "/dropped-early")
	r.ctrRelabelled = r.obs.Counter("csfq/" + node.Name() + "/relabelled")
	for _, l := range node.Links() {
		r.addLink(l)
	}
	node.SetForwarder(r)
	// Buffer overflows slightly deflate α (the estimated fair share was
	// too high).
	net.OnDrop(func(d netem.Drop) {
		if d.Reason != netem.DropOverflow || d.Link == nil {
			return
		}
		if st, ok := r.links[d.Link]; ok && st.alpha > 0 {
			old := st.alpha
			st.alpha *= 1 - r.cfg.OverflowDecay
			r.emitAlpha(st, d.At, old, "overflow-decay")
		}
	})
	return r
}

// addLink adopts one outgoing link, publishing its fair-share estimate as
// the "alpha/<link>" gauge.
func (r *Router) addLink(l *netem.Link) *linkState {
	st := &linkState{name: l.Name(), capacity: l.PacketsPerSecond(r.cfg.PacketSizeBytes)}
	r.links[l] = st
	r.obs.GaugeFunc(obs.PrefixAlpha+st.name, func() float64 { return st.alpha })
	return st
}

// emitAlpha records a fair-share re-estimation in the control event stream.
func (r *Router) emitAlpha(st *linkState, at time.Duration, old float64, rule string) {
	if !r.obs.Enabled() {
		return
	}
	r.obs.Emit(obs.ControlEvent{
		At: at, Kind: obs.KindAlphaUpdate,
		Node: r.node.Name(), Link: st.name,
		Old: old, New: st.alpha, Detail: rule,
	})
}

// Stats returns a copy of the router's counters.
func (r *Router) Stats() RouterStats { return r.stats }

// Alpha reports the current fair-share estimate for an outgoing link
// (packets/second normalized rate), for tests and instrumentation.
func (r *Router) Alpha(l *netem.Link) float64 {
	if st, ok := r.links[l]; ok {
		return st.alpha
	}
	return 0
}

// OnForward implements netem.Forwarder: the CSFQ acceptance test.
func (r *Router) OnForward(p *packet.Packet, out *netem.Link) bool {
	st, ok := r.links[out]
	if !ok {
		// Link added after construction; adopt it.
		st = r.addLink(out)
	}
	now := r.net.Now()
	r.stats.Arrived++
	r.ctrArrived.Inc()

	st.arrRate = ewmaRate(st.arrRate, st.lastArr, now, r.cfg.K, st.hasArr)
	st.lastArr = now
	st.hasArr = true

	// Drop probability max(0, 1 − α/label); α == 0 means the link has
	// never been congested, so everything is accepted.
	drop := false
	if st.alpha > 0 && p.Label > 0 {
		prob := 1 - st.alpha/p.Label
		if prob > 0 {
			drop = r.rng.Bernoulli(prob)
		}
	}

	r.updateAlpha(st, now, p.Label)

	if drop {
		r.stats.DroppedEarly++
		r.ctrDroppedEarly.Inc()
		return false
	}
	st.accRate = ewmaRate(st.accRate, st.lastAcc, now, r.cfg.K, st.hasAcc)
	st.lastAcc = now
	st.hasAcc = true
	if st.alpha > 0 && p.Label > st.alpha {
		p.Label = st.alpha
		r.stats.Relabelled++
		r.ctrRelabelled.Inc()
	}
	return true
}

// updateAlpha runs the fair-share estimation state machine of the CSFQ
// paper: under sustained congestion (A ≥ C for K_link) update
// α ← α·C/F; after an uncongested window set α to the largest label seen.
func (r *Router) updateAlpha(st *linkState, now time.Duration, label float64) {
	congested := st.arrRate >= st.capacity
	if congested {
		if !st.congest {
			st.congest = true
			st.winStart = now
			if st.alpha == 0 {
				// First congestion ever: seed α with the largest label
				// observed so far (Stoica's initialization).
				if st.tmpAlpha > 0 {
					st.alpha = st.tmpAlpha
				} else if label > 0 {
					st.alpha = label
				}
				if st.alpha > 0 {
					r.emitAlpha(st, now, 0, "seed")
				}
			}
		} else if now-st.winStart >= r.cfg.KLink {
			if st.accRate > 0 && st.alpha > 0 {
				old := st.alpha
				st.alpha *= st.capacity / st.accRate
				r.emitAlpha(st, now, old, "congested-window")
			}
			st.winStart = now
		}
		return
	}
	if st.congest {
		st.congest = false
		st.winStart = now
		st.tmpAlpha = 0
		return
	}
	if label > st.tmpAlpha {
		st.tmpAlpha = label
	}
	if now-st.winStart >= r.cfg.KLink {
		if st.tmpAlpha > 0 {
			old := st.alpha
			st.alpha = st.tmpAlpha
			if st.alpha != old {
				r.emitAlpha(st, now, old, "uncongested-window")
			}
		}
		st.winStart = now
		st.tmpAlpha = 0
	}
}

// ewmaRate folds an arrival at time now into an exponentially averaged rate
// estimate: r ← (1 − e^(−T/K))·(1/T) + e^(−T/K)·r.
func ewmaRate(est float64, last, now time.Duration, k time.Duration, has bool) float64 {
	if !has {
		return est
	}
	gap := (now - last).Seconds()
	if gap <= 0 {
		gap = 1e-9
	}
	w := math.Exp(-gap / k.Seconds())
	return float64((1-w)*(1/gap)) + float64(w*est)
}
