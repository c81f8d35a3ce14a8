package core

import (
	"fmt"
	"time"

	"repro/internal/adapt"
	"repro/internal/ingress"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/workload"
)

// EdgeConfig parameterizes a Corelite edge router.
type EdgeConfig struct {
	// Epoch is the edge adaptation period (paper: 100 ms).
	Epoch time.Duration
	// K1 is the marking constant: one marker every K1·w data packets
	// (paper: 1).
	K1 float64
	// MarkBytes switches the marking unit from packets to bytes — the
	// paper's "after every N_w data packets (or bytes)" alternative: one
	// marker every K1·w·MarkBytesUnit bytes of out-of-profile traffic.
	// Byte marking keeps the marker rate proportional to the normalized
	// rate when packet sizes vary (e.g. host traffic through shaped
	// flows).
	MarkBytes bool
	// MarkBytesUnit is the byte quantum for MarkBytes (0 defaults to the
	// paper's 1000-byte packet, making the two units equivalent for
	// fixed-size traffic).
	MarkBytesUnit int
	// Adapt parameterizes the per-flow rate controller.
	Adapt adapt.Config
	// PhaseOffset delays the first epoch tick so that routers do not all
	// process epochs in lock-step (real routers' clocks are not aligned;
	// synchronized epochs produce artificial rate oscillation). Zero
	// derives a deterministic offset from the node name; values >= Epoch
	// are taken modulo Epoch.
	PhaseOffset time.Duration
	// DeferDecrease batches marker feedback to the epoch boundary (the
	// paper's literal description: react once per epoch to
	// m(f) = max over core routers of the epoch's feedback count). The
	// default (false) applies each decrease as feedback arrives while
	// still enforcing the max-over-cores semantics incrementally: the
	// applied decrease this epoch is β · max_c count_c. Immediate
	// application shortens the control-loop latency by half an epoch and
	// spreads decreases in time, which measurably reduces queue
	// overshoot; the ablation benches compare both.
	DeferDecrease bool
}

// DefaultEdgeConfig returns the paper's edge settings.
func DefaultEdgeConfig() EdgeConfig {
	return EdgeConfig{
		Epoch: 100 * time.Millisecond,
		K1:    1,
		Adapt: adapt.DefaultConfig(),
	}
}

// Edge is a Corelite ingress edge router: the shared ingress edge (flow
// table, rate controllers, pacers, epoch ticker) plus Corelite's mechanism
// — a marker stamped on every N_w-th out-of-profile packet, and a decrease
// driven by the maximum feedback count over core routers.
type Edge struct {
	ingress.Edge[markState]
	net *netem.Network
	cfg EdgeConfig

	// markersInjected counts markers stamped onto outgoing packets; the
	// invariant checker reconciles the sum over edges against the
	// network's marker counters.
	markersInjected int64
	// ctrMarkers counts markers injected into the data stream (inert when
	// observability is off).
	ctrMarkers *obs.Counter
	// rtt records each feedback's delivery latency, from the router's
	// decision to its arrival here (inert when observability is off).
	rtt *obs.Histogram
}

// edgeFlow is one flow on a Corelite edge.
type edgeFlow = ingress.Flow[markState]

// markState is Corelite's per-flow edge state.
type markState struct {
	minRate float64
	// sinceMarker accumulates out-of-profile packet credit since the
	// last marker (whole packets for best-effort flows; the excess
	// fraction (b_g − min)/b_g per packet for flows with a minimum rate
	// contract).
	sinceMarker float64
	// feedback counts marker feedbacks per core link this epoch, one
	// entry per link heard from; a flow crosses a handful of core links,
	// so a scan finds the entry. maxCount is the largest count.
	feedback []coreCount
	maxCount int
	// applied is the decrease already applied this epoch in immediate
	// mode: β · (max over cores of feedback counts so far).
	applied int
}

// coreCount is one core link's feedback count this epoch.
type coreCount struct{ link, n int }

// NewEdge attaches a Corelite edge to the given ingress node. Zero config
// fields default to the paper's values.
func NewEdge(net *netem.Network, node *netem.Node, cfg EdgeConfig) *Edge {
	if cfg.Epoch <= 0 {
		cfg.Epoch = 100 * time.Millisecond
	}
	if cfg.K1 <= 0 {
		cfg.K1 = 1
	}
	if cfg.MarkBytesUnit <= 0 {
		cfg.MarkBytesUnit = packet.DefaultSizeBytes
	}
	if cfg.Adapt == (adapt.Config{}) {
		cfg.Adapt = adapt.DefaultConfig()
	}
	icfg := ingress.Config[markState]{
		Scheme:      "core",
		Epoch:       cfg.Epoch,
		PhaseOffset: cfg.PhaseOffset,
		Reset: func(f *edgeFlow) {
			f.State.sinceMarker = 0
			endFeedbackEpoch(f)
		},
		EndEpoch: immediateEpoch,
	}
	if cfg.DeferDecrease {
		icfg.EndEpoch = deferredEpoch
	}
	e := &Edge{Edge: ingress.New(net, node, icfg), net: net, cfg: cfg}
	e.ctrMarkers = net.Obs().Counter("edge/" + node.Name() + "/markers-injected")
	e.rtt = net.Obs().Histogram(obs.HistFeedbackRTT, "s")
	node.SetControl(e)
	return e
}

// AddFlow registers a best-effort flow toward dst with the given rate
// weight and returns its local id. The flow is created inactive; call
// StartFlow.
func (e *Edge) AddFlow(dst string, weight float64) (int, error) {
	return e.AddFlowContract(dst, weight, 0)
}

// AddFlowContract registers a flow with a minimum rate contract: the edge
// never throttles the flow below minRate (packets/second), and markers
// reflect only the flow's out-of-profile rate (b_g − min)/w, so core
// feedback targets excess traffic exclusively. Contract admission control
// (Σ minimums ≤ capacity on every link) is the operator's responsibility —
// the experiments harness refuses an over-subscribed scenario before it runs.
func (e *Edge) AddFlowContract(dst string, weight, minRate float64) (int, error) {
	return e.add(weight, minRate, workload.PacerConfig{Dst: dst})
}

// AddShapedFlow registers a flow whose packets arrive from end hosts (via
// Offer) instead of being generated by a backlogged source: the edge
// queues them and releases at the allowed rate b_g(f), dropping on queue
// overflow — the paper's "ill behaved flows" are policed here at the edge
// (§6). queueCap bounds the shaping queue in packets (<= 0 for a default).
func (e *Edge) AddShapedFlow(weight, minRate float64, queueCap int) (int, error) {
	return e.add(weight, minRate, workload.PacerConfig{Shaped: true, Capacity: queueCap})
}

func (e *Edge) add(weight, minRate float64, pc workload.PacerConfig) (int, error) {
	acfg := e.cfg.Adapt
	acfg.MinRate = minRate
	f, err := e.Edge.Add(weight, acfg, pc)
	if err != nil {
		return 0, err
	}
	f.State = markState{minRate: minRate}
	f.Pacer.Decorate = func(p *packet.Packet) { e.decorate(f, p) }
	return f.ID.Local, nil
}

// shaped looks up a flow that takes host packets.
func (e *Edge) shaped(local int) (*edgeFlow, error) {
	f, err := e.Flow(local)
	if err == nil && !f.Pacer.Shaped() {
		err = fmt.Errorf("core: flow %d on edge %s is not a shaped flow", local, e.Node().Name())
	}
	return f, err
}

// Offer hands a host packet to a shaped flow: the edge stamps the flow
// identity and queues the packet for shaped release. It reports false when
// the packet was dropped (inactive flow or full shaping queue).
func (e *Edge) Offer(local int, p *packet.Packet) (bool, error) {
	f, err := e.shaped(local)
	if err != nil {
		return false, err
	}
	p.Flow = f.ID
	return f.Pacer.Offer(p), nil
}

// ShaperQueueLen reports a shaped flow's current backlog.
func (e *Edge) ShaperQueueLen(local int) (int, error) {
	f, err := e.shaped(local)
	if err != nil {
		return 0, err
	}
	return f.Pacer.QueueLen(), nil
}

// ShaperDropped reports packets policed (dropped) at a shaped flow's edge
// queue.
func (e *Edge) ShaperDropped(local int) (int64, error) {
	f, err := e.shaped(local)
	if err != nil {
		return 0, err
	}
	return f.Pacer.Dropped(), nil
}

// decorate stamps the N_w-th out-of-profile data packet with a piggybacked
// marker carrying the flow's normalized excess rate. For best-effort flows
// (no contract) every packet is out of profile, giving the paper's marker
// rate b_g/(K1·w); with a contract only the excess fraction accrues
// credit, so the marker rate is (b_g − min)/(K1·w) and in-profile traffic
// draws no feedback.
func (e *Edge) decorate(f *edgeFlow, p *packet.Packet) {
	st := &f.State
	rate := f.Ctrl.Rate()
	excess := 1.0
	if st.minRate > 0 {
		if rate <= st.minRate {
			return // fully in profile: no markers, no feedback
		}
		excess = (rate - st.minRate) / rate
	}
	nw := float64(e.cfg.K1 * f.Weight)
	credit := excess
	if e.cfg.MarkBytes {
		// Count out-of-profile bytes in units of MarkBytesUnit so a
		// half-size packet earns half a packet's worth of credit.
		credit = excess * float64(p.SizeBytes) / float64(e.cfg.MarkBytesUnit)
	}
	st.sinceMarker += credit
	if st.sinceMarker >= nw {
		st.sinceMarker -= nw
		p.Marker = e.net.PacketPool().GetMarker(f.ID, (rate-st.minRate)/f.Weight)
		e.markersInjected++
		e.ctrMarkers.Inc()
	}
}

// MarkersInjected reports how many markers this edge has stamped onto
// outgoing packets.
func (e *Edge) MarkersInjected() int64 { return e.markersInjected }

// MinRate reports the flow's contracted minimum rate (0 = best effort).
func (e *Edge) MinRate(local int) (float64, error) {
	f, err := e.Flow(local)
	if err != nil {
		return 0, err
	}
	return f.State.minRate, nil
}

// Sent reports packets emitted so far for the flow.
func (e *Edge) Sent(local int) (int64, error) {
	f, err := e.Flow(local)
	if err != nil {
		return 0, err
	}
	return f.Pacer.Sent(), nil
}

// HandleControl takes a marker feedback the control plane delivers to the
// edge's node (netem.Network.SendControl): it records the delivery latency
// and hands the feedback to HandleFeedback.
func (e *Edge) HandleControl(c netem.Control) {
	e.rtt.Observe((e.net.Now() - c.Sent).Seconds())
	e.HandleFeedback(c.Flow, c.Link)
}

// HandleFeedback records one marker feedback for the flow from the core
// link with id link (netem.Link.ID). Unless DeferDecrease is set, the
// decrease is applied immediately while keeping the paper's max-over-cores
// semantics: the total decrease within an epoch is β · max_c count_c.
func (e *Edge) HandleFeedback(local, link int) {
	f, err := e.Flow(local)
	if err != nil || !f.Pacer.Active() {
		return // stale feedback for a flow that no longer exists or runs
	}
	st := &f.State
	i := 0
	for i < len(st.feedback) && st.feedback[i].link != link {
		i++
	}
	if i == len(st.feedback) {
		st.feedback = append(st.feedback, coreCount{link: link})
	}
	st.feedback[i].n++
	st.maxCount = max(st.maxCount, st.feedback[i].n)
	if e.cfg.DeferDecrease || st.maxCount <= st.applied {
		return
	}
	delta := st.maxCount - st.applied
	st.applied = st.maxCount
	f.Pacer.SetRate(f.Ctrl.ApplyIndications(e.net.Now(), float64(delta)))
}

// immediateEpoch and deferredEpoch apply the paper's §2.2 adaptation to
// one active flow at the end of an epoch: react to the maximum of the
// marker feedback counts received from any single core router this epoch,
// or grow by α on a quiet epoch. Without DeferDecrease that maximum was
// already applied as feedback arrived.
func immediateEpoch(f *edgeFlow, now time.Duration) float64 {
	rate := f.Ctrl.TickEpoch(now, f.State.applied > 0)
	endFeedbackEpoch(f)
	return rate
}

func deferredEpoch(f *edgeFlow, now time.Duration) float64 {
	rate := f.Ctrl.OnEpoch(now, float64(f.State.maxCount))
	endFeedbackEpoch(f)
	return rate
}

// endFeedbackEpoch forgets the epoch's feedback counts.
func endFeedbackEpoch(f *edgeFlow) {
	st := &f.State
	st.feedback, st.maxCount, st.applied = st.feedback[:0], 0, 0
}
