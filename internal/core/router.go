package core

import (
	"time"

	"repro/internal/ingress"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// SelectorKind chooses the marker feedback mechanism at the core router.
type SelectorKind int

// Selector kinds.
const (
	// SelectorCache is the marker-cache scheme of §2.2: a circular cache
	// of recent markers from which feedback is drawn uniformly at random,
	// so the expected feedback per flow is proportional to its normalized
	// rate.
	SelectorCache SelectorKind = iota + 1
	// SelectorStateless is the cache-less selective scheme of §3.2: a
	// running average r_av of labelled normalized rates plus a deficit
	// counter selects only flows sending at or above the average; it is
	// "truly flow stateless".
	SelectorStateless
)

// String implements fmt.Stringer.
func (k SelectorKind) String() string {
	switch k {
	case SelectorCache:
		return "cache"
	case SelectorStateless:
		return "stateless"
	default:
		return "unknown"
	}
}

// RouterConfig parameterizes a Corelite core router.
type RouterConfig struct {
	// Epoch is the congestion epoch (paper: 100 ms).
	Epoch time.Duration
	// QThresh is the congestion-detection threshold on the epoch's
	// time-averaged queue length (paper: 8 packets).
	QThresh float64
	// CorrectionK is the small self-correcting constant k in the F_n
	// formula (§3.1); 0 disables the cubic term (the ablation case).
	CorrectionK float64
	// CorrectionKSet must be true for CorrectionK == 0 to be honored;
	// otherwise the default is applied. Use DisableCorrection to build an
	// ablation config.
	CorrectionKSet bool
	// Beta is the per-marker rate decrease applied by edges; F_n is the
	// required aggregate throttle divided by Beta (paper: 1).
	Beta float64
	// Selector picks the feedback mechanism (default SelectorStateless).
	Selector SelectorKind
	// CacheSize bounds the marker cache for SelectorCache (default 512).
	CacheSize int
	// RAvgGain is the per-marker EWMA gain for the running average r_av
	// (default 0.1).
	RAvgGain float64
	// WAvgGain is the per-epoch EWMA gain for the running average marker
	// count w_av (default 0.25).
	WAvgGain float64
	// PacketSizeBytes converts link bandwidth into the service rate μ in
	// packets per epoch (default 1000, the paper's packet size).
	PacketSizeBytes int
	// Detector selects the congestion-estimation module (default
	// DetectorMM1Cubic, the paper's formula). See DetectorKind.
	Detector DetectorKind
	// LinearGain is DetectorLinear's markers-per-excess-packet gain
	// (default 1).
	LinearGain float64
	// EWMAWeight is DetectorEWMA's smoothing gain (default 0.25).
	EWMAWeight float64
	// PhaseOffset delays the first congestion epoch so routers do not
	// detect congestion in lock-step; zero derives a deterministic offset
	// from the node name (see EdgeConfig.PhaseOffset).
	PhaseOffset time.Duration
	// DampingGamma discounts feedback already in flight: the router keeps
	// a leaky counter of recently bounced markers
	// (outstanding ← γ·outstanding + sent_this_epoch) and sends
	// max(0, F_n − outstanding) instead of the raw F_n. Edges need
	// roughly an RTT plus an edge epoch to react, so re-sending the full
	// F_n during that lag double-counts the requested throttling and
	// produces deep undershoot followed by a synchronized re-ramp that
	// overflows the buffer. γ is the per-epoch memory (default 0.7 ≈ a
	// three-epoch horizon, matching the evaluation topology's feedback
	// latency); at equilibrium the damping scales sustained feedback by
	// (1 − γ), which the cubic F_n term more than compensates. Use
	// DisableDamping for the undamped ablation.
	DampingGamma float64
	// DampingSet must be true for DampingGamma == 0 to mean "no memory"
	// rather than the default.
	DampingSet bool
}

// DefaultRouterConfig returns the paper's core settings with the stateless
// selector.
func DefaultRouterConfig() RouterConfig {
	return RouterConfig{
		Epoch:           100 * time.Millisecond,
		QThresh:         8,
		CorrectionK:     0.003,
		Beta:            1,
		Selector:        SelectorStateless,
		CacheSize:       512,
		RAvgGain:        0.1,
		WAvgGain:        0.25,
		PacketSizeBytes: packet.DefaultSizeBytes,
		DampingGamma:    0.7,
		Detector:        DetectorMM1Cubic,
		LinearGain:      1,
		EWMAWeight:      0.25,
	}
}

// DisableCorrection returns cfg with the cubic self-correcting term turned
// off (k = 0), the §3.1 ablation.
func DisableCorrection(cfg RouterConfig) RouterConfig {
	cfg.CorrectionK = 0
	cfg.CorrectionKSet = true
	return cfg
}

// DisableDamping returns cfg with the outstanding-feedback discount turned
// off (the naive per-epoch F_n), for the ablation benches.
func DisableDamping(cfg RouterConfig) RouterConfig {
	cfg.DampingGamma = -1
	cfg.DampingSet = true
	return cfg
}

// FeedbackFunc delivers one marker feedback toward the edge that generated
// the marker. coreID identifies the congested link so edges can take the
// per-core maximum. ControlFeedback returns the one that carries it over
// the network's control plane.
type FeedbackFunc func(m packet.Marker, coreID string)

// ControlFeedback returns the FeedbackFunc that carries router's marker
// feedback over the network's control plane (netem.Network.SendControl) to
// the flow's ingress edge, edges[m.Flow.Edge], with the reverse-path
// latency; feedback for a flow whose edge is not in edges is dropped. A send
// that fails (no path back to the edge) is handed to onErr when it is
// non-nil. The congested link travels as its id: coreID is the name of one
// of router's outgoing links, found by a scan over the few of them.
func ControlFeedback(net *netem.Network, router *netem.Node, edges map[string]*Edge, onErr func(error)) FeedbackFunc {
	out := router.Links()
	return func(m packet.Marker, coreID string) {
		e, ok := edges[m.Flow.Edge]
		if !ok {
			return
		}
		c := netem.Control{Flow: m.Flow.Local}
		for _, l := range out {
			if l.Name() == coreID {
				c.Link = l.ID()
				break
			}
		}
		if err := net.SendControl(router, e.Node(), c); err != nil && onErr != nil {
			onErr(err)
		}
	}
}

// RouterStats aggregates counters over all of a router's links.
type RouterStats struct {
	// MarkersSeen counts marked packets forwarded.
	MarkersSeen int64
	// FeedbackSent counts marker feedbacks bounced to edges.
	FeedbackSent int64
	// CongestionEpochs counts link-epochs with q_avg > q_thresh.
	CongestionEpochs int64
}

// Router is a Corelite core router. It never drops packets by policy, keeps
// no per-flow state, and generates weighted fair marker feedback per
// outgoing link upon incipient congestion.
type Router struct {
	net      *netem.Network
	node     *netem.Node
	cfg      RouterConfig
	rng      *sim.RNG
	feedback FeedbackFunc

	links []*linkState
	// byPort indexes the same states by the link's port on the node, so a
	// marker finds its link's selector in O(1) whatever the node's degree.
	byPort []*linkState
	ticker ingress.Ticker
	stats  RouterStats

	// Observability (all inert when the network has no registry attached).
	obs            *obs.Registry
	ctrMarkersSeen *obs.Counter
	ctrFeedback    *obs.Counter
	ctrEpochs      *obs.Counter
}

var _ netem.Forwarder = (*Router)(nil)

type linkState struct {
	link *netem.Link
	// mu is the link service rate in packets per epoch.
	mu       float64
	detector detector
	selector selector
	// sentThisEpoch counts feedbacks bounced during the current epoch;
	// outstanding is the leaky memory of recent feedback (see
	// DampingGamma).
	sentThisEpoch int
	outstanding   float64
	// lastFn is the detector's most recent raw F_n (published as the
	// "fn/<link>" gauge); congested tracks epoch-boundary transitions for
	// the control-event stream.
	lastFn    float64
	congested bool
}

// selector is the per-link marker feedback mechanism.
type selector interface {
	// observe processes a marker being forwarded on the link. send is
	// non-nil only while feedback may be generated inline (stateless
	// selector quota active).
	observe(m packet.Marker)
	// endEpoch finishes an epoch with the given F_n (0 = not congested);
	// the selector may emit feedback immediately (cache) or arm a quota
	// for the next epoch (stateless).
	endEpoch(fn float64)
}

// NewRouter attaches Corelite core behaviour to node: per-link congestion
// detection and marker feedback on every currently existing outgoing link.
// feedback must be non-nil; rng drives randomized marker selection.
func NewRouter(net *netem.Network, node *netem.Node, cfg RouterConfig, rng *sim.RNG, feedback FeedbackFunc) *Router {
	cfg = normalizeRouterConfig(cfg)
	r := &Router{net: net, node: node, cfg: cfg, rng: rng, feedback: feedback}
	reg := net.Obs()
	r.obs = reg
	r.ctrMarkersSeen = reg.Counter("core/" + node.Name() + "/markers-seen")
	r.ctrFeedback = reg.Counter("core/" + node.Name() + obs.SuffixFeedbackSent)
	r.ctrEpochs = reg.Counter("core/" + node.Name() + obs.SuffixCongestionEpochs)
	links := node.Links()
	r.byPort = make([]*linkState, len(links))
	for _, l := range links {
		ls := &linkState{
			link:     l,
			mu:       l.PacketsPerSecond(cfg.PacketSizeBytes) * cfg.Epoch.Seconds(),
			detector: newDetector(cfg, l),
		}
		name := l.Name()
		reg.GaugeFunc(obs.PrefixFn+name, func() float64 { return ls.lastFn })
		switch cfg.Selector {
		case SelectorCache:
			cs := newCacheSelector(cfg.CacheSize, rng, r.emit(ls))
			cs.cached = reg.Counter("marker/" + name + "/cached")
			cs.evicted = reg.Counter("marker/" + name + "/evicted")
			ls.selector = cs
		default:
			ss := newStatelessSelector(cfg.RAvgGain, cfg.WAvgGain, rng, r.emit(ls))
			ss.deficitCtr = reg.Counter("marker/" + name + "/deficit")
			if reg.Enabled() {
				ss.onDeficit = func(rate, rav float64) {
					reg.Emit(obs.ControlEvent{
						At: net.Now(), Kind: obs.KindMarkerDeficit,
						Node: node.Name(), Link: name, Old: rate, New: rav,
					})
				}
			}
			ls.selector = ss
		}
		r.links = append(r.links, ls)
		r.byPort[l.Port()] = ls
	}
	node.SetForwarder(r)
	return r
}

func normalizeRouterConfig(cfg RouterConfig) RouterConfig {
	def := DefaultRouterConfig()
	if cfg.Epoch <= 0 {
		cfg.Epoch = def.Epoch
	}
	if cfg.QThresh <= 0 {
		cfg.QThresh = def.QThresh
	}
	if cfg.CorrectionK == 0 && !cfg.CorrectionKSet {
		cfg.CorrectionK = def.CorrectionK
	}
	if cfg.Beta <= 0 {
		cfg.Beta = def.Beta
	}
	if cfg.Selector == 0 {
		cfg.Selector = def.Selector
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = def.CacheSize
	}
	if cfg.RAvgGain <= 0 {
		cfg.RAvgGain = def.RAvgGain
	}
	if cfg.WAvgGain <= 0 {
		cfg.WAvgGain = def.WAvgGain
	}
	if cfg.PacketSizeBytes <= 0 {
		cfg.PacketSizeBytes = def.PacketSizeBytes
	}
	if cfg.DampingGamma == 0 && !cfg.DampingSet {
		cfg.DampingGamma = def.DampingGamma
	}
	if cfg.Detector == 0 {
		cfg.Detector = def.Detector
	}
	if cfg.LinearGain <= 0 {
		cfg.LinearGain = def.LinearGain
	}
	if cfg.EWMAWeight <= 0 {
		cfg.EWMAWeight = def.EWMAWeight
	}
	if cfg.DampingGamma >= 1 {
		cfg.DampingGamma = 0.9
	}
	return cfg
}

// emit returns the feedback sink for one link.
func (r *Router) emit(ls *linkState) func(packet.Marker) {
	coreID := ls.link.Name()
	return func(m packet.Marker) {
		r.stats.FeedbackSent++
		ls.sentThisEpoch++
		r.ctrFeedback.Inc()
		if r.obs.Enabled() {
			r.obs.Emit(obs.ControlEvent{
				At: r.net.Now(), Kind: obs.KindMarkerSelected,
				Node: r.node.Name(), Link: coreID,
				Flow: m.Flow.String(), New: m.Rate,
			})
		}
		r.feedback(m, coreID)
	}
}

// Stats returns a copy of the router counters.
func (r *Router) Stats() RouterStats { return r.stats }

// Name reports the name of the node this router is attached to.
func (r *Router) Name() string { return r.node.Name() }

// CacheStats is the marker-cache accounting of one router (summed over its
// links): every marker ever inserted is either still held in a cache slot
// or was evicted by a later insertion, so Inserted == Held + Evicted.
type CacheStats struct {
	Inserted int64
	Held     int64
	Evicted  int64
}

// CacheStats aggregates marker-cache accounting over the router's links. It
// reports false when the router runs the stateless selector (no cache to
// account for).
func (r *Router) CacheStats() (CacheStats, bool) {
	var cs CacheStats
	found := false
	for _, ls := range r.links {
		c, ok := ls.selector.(*cacheSelector)
		if !ok {
			continue
		}
		found = true
		cs.Inserted += c.insertedN
		cs.Held += int64(c.size())
		cs.Evicted += c.evictedN
	}
	return cs, found
}

// OnForward implements netem.Forwarder. The core router's forwarding
// behaviour is deliberately simple: copy the piggybacked marker into the
// link's selector (no per-flow processing) and always forward.
func (r *Router) OnForward(p *packet.Packet, out *netem.Link) bool {
	// A link added after construction has no state and sees no markers.
	if port := out.Port(); p.Marker != nil && port < len(r.byPort) {
		ls := r.byPort[port]
		r.stats.MarkersSeen++
		r.ctrMarkersSeen.Inc()
		ls.selector.observe(*p.Marker)
	}
	return true
}

// Start begins periodic congestion-epoch processing across the router's
// links. The first epoch ends after the router's phase offset so that core
// routers detect congestion at staggered instants.
func (r *Router) Start() {
	r.ticker.Start(r.net.Scheduler(), r.node.Name(), r.cfg.PhaseOffset, r.cfg.Epoch, r.onEpoch)
}

// Stop cancels epoch processing.
func (r *Router) Stop() { r.ticker.Stop() }

// onEpoch performs incipient congestion detection (§3.1) per link and hands
// the computed F_n to the link's selector.
func (r *Router) onEpoch() {
	now := r.net.Now()
	for _, ls := range r.links {
		qavg := ls.link.Monitor().EndEpoch(now)
		fn := ls.detector.endEpoch(now, qavg)
		ls.lastFn = fn
		if fn > 0 {
			r.stats.CongestionEpochs++
			r.ctrEpochs.Inc()
		}
		if r.obs.Enabled() {
			switch {
			case fn > 0 && !ls.congested:
				ls.congested = true
				r.obs.Emit(obs.ControlEvent{
					At: now, Kind: obs.KindEpochStart,
					Node: r.node.Name(), Link: ls.link.Name(),
					QAvg: qavg, Fn: fn,
				})
			case fn <= 0 && ls.congested:
				ls.congested = false
				r.obs.Emit(obs.ControlEvent{
					At: now, Kind: obs.KindEpochEnd,
					Node: r.node.Name(), Link: ls.link.Name(),
					QAvg: qavg,
				})
			}
		}
		// Discount feedback still in flight (see DampingGamma).
		gamma := r.cfg.DampingGamma
		if gamma < 0 {
			gamma = 0
			ls.outstanding = 0 // damping disabled
		} else {
			ls.outstanding = float64(gamma*ls.outstanding) + float64(ls.sentThisEpoch)
			if fn > 0 {
				fn -= ls.outstanding
				if fn < 0 {
					fn = 0
				}
			}
		}
		ls.sentThisEpoch = 0
		ls.selector.endEpoch(fn)
	}
}

// referenceMu is the service rate (packets per epoch) of the paper's
// evaluation links — 4 Mbps, 1 KB packets, 100 ms epochs — against which
// the default CorrectionK is calibrated.
const referenceMu = 50.0
