package core

import (
	"fmt"
	"time"

	"repro/internal/adapt"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
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

// Edge is a Corelite ingress edge router. It keeps the per-flow state the
// architecture pushes out of the core: allowed rate, weight, marker spacing,
// and per-core feedback counts.
type Edge struct {
	net  *netem.Network
	node *netem.Node
	cfg  EdgeConfig

	flows  []*edgeFlow
	ticker *sim.Event

	// markersInjected counts markers stamped onto outgoing packets; the
	// invariant checker reconciles the sum over edges against the
	// network's marker counters.
	markersInjected int64
	// ctrMarkers counts markers injected into the data stream (inert when
	// observability is off).
	ctrMarkers *obs.Counter
}

// ratePipe is the per-flow packet path the edge controls: a backlogged
// Source for self-generating flows or a Shaper for host-offered traffic.
type ratePipe interface {
	Start(rate float64)
	Stop()
	SetRate(rate float64)
	Active() bool
}

var (
	_ ratePipe = (*workload.Source)(nil)
	_ ratePipe = (*workload.Shaper)(nil)
)

type edgeFlow struct {
	id      packet.FlowID
	weight  float64
	minRate float64
	pipe    ratePipe
	sent    func() int64
	shaper  *workload.Shaper // non-nil for shaped (host-fed) flows
	ctrl    *adapt.Controller

	// sinceMarker accumulates out-of-profile packet credit since the
	// last marker (whole packets for best-effort flows; the excess
	// fraction (b_g − min)/b_g per packet for flows with a minimum rate
	// contract).
	sinceMarker float64
	// feedback counts marker feedbacks per core link this epoch.
	feedback map[string]int
	// applied is the decrease already applied this epoch in immediate
	// mode: β · (max over cores of feedback counts so far).
	applied int
}

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
	e := &Edge{net: net, node: node, cfg: cfg}
	e.ctrMarkers = net.Obs().Counter("edge/" + node.Name() + "/markers-injected")
	return e
}

// registerFlowObs publishes a new flow's allowed rate and adaptation phase
// as gauges and wires its controller's phase transitions into the control
// event stream. No-op when the network has no registry attached.
func (e *Edge) registerFlowObs(f *edgeFlow) {
	reg := e.net.Obs()
	if !reg.Enabled() {
		return
	}
	id := f.id.String()
	reg.GaugeFunc(obs.PrefixRate+id, f.ctrl.Rate)
	reg.GaugeFunc(obs.PrefixPhase+id, func() float64 { return float64(f.ctrl.Phase()) })
	node := e.node.Name()
	f.ctrl.Hook = func(oldPhase, newPhase adapt.Phase, oldRate, newRate float64) {
		reg.Emit(obs.ControlEvent{
			At: e.net.Now(), Kind: obs.KindPhaseChange,
			Node: node, Flow: id,
			Old: oldRate, New: newRate,
			Detail: phaseName(oldPhase) + "->" + phaseName(newPhase),
		})
	}
}

// phaseName renders an adapt.Phase for event details, naming the
// not-started zero phase "stopped".
func phaseName(p adapt.Phase) string {
	if p == 0 {
		return "stopped"
	}
	return p.String()
}

// Node reports the ingress node this edge controls.
func (e *Edge) Node() *netem.Node { return e.node }

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
	if weight <= 0 {
		return 0, fmt.Errorf("core: flow weight %v must be positive", weight)
	}
	if minRate < 0 {
		return 0, fmt.Errorf("core: flow minimum rate %v must be non-negative", minRate)
	}
	local := len(e.flows)
	id := packet.FlowID{Edge: e.node.Name(), Local: local}
	acfg := e.cfg.Adapt
	acfg.MinRate = minRate
	f := &edgeFlow{
		id:       id,
		weight:   weight,
		minRate:  minRate,
		ctrl:     adapt.NewController(acfg),
		feedback: make(map[string]int),
	}
	src := workload.NewSource(e.net.Scheduler(), workload.SourceConfig{
		Flow:   id,
		Dst:    dst,
		Inject: e.node.Inject,
		Pool:   e.net.PacketPool(),
	})
	src.Decorate = func(p *packet.Packet) { e.decorate(f, p) }
	f.pipe = src
	f.sent = src.Sent
	e.flows = append(e.flows, f)
	e.registerFlowObs(f)
	return local, nil
}

// AddShapedFlow registers a flow whose packets arrive from end hosts (via
// Offer) instead of being generated by a backlogged source: the edge
// queues them and releases at the allowed rate b_g(f), dropping on queue
// overflow — the paper's "ill behaved flows" are policed here at the edge
// (§6). queueCap bounds the shaping queue in packets (<= 0 for a default).
func (e *Edge) AddShapedFlow(weight, minRate float64, queueCap int) (int, error) {
	if weight <= 0 {
		return 0, fmt.Errorf("core: flow weight %v must be positive", weight)
	}
	if minRate < 0 {
		return 0, fmt.Errorf("core: flow minimum rate %v must be non-negative", minRate)
	}
	local := len(e.flows)
	id := packet.FlowID{Edge: e.node.Name(), Local: local}
	acfg := e.cfg.Adapt
	acfg.MinRate = minRate
	f := &edgeFlow{
		id:       id,
		weight:   weight,
		minRate:  minRate,
		ctrl:     adapt.NewController(acfg),
		feedback: make(map[string]int),
	}
	sh := workload.NewShaper(e.net.Scheduler(), workload.ShaperConfig{
		Capacity: queueCap,
		Inject:   e.node.Inject,
	})
	sh.Decorate = func(p *packet.Packet) { e.decorate(f, p) }
	// Packets policed at the edge never enter the cloud, so the shaper's
	// drop hook is their release point.
	sh.OnDrop = e.net.PacketPool().Put
	f.pipe = sh
	f.sent = sh.Released
	f.shaper = sh
	e.flows = append(e.flows, f)
	e.registerFlowObs(f)
	return local, nil
}

// Offer hands a host packet to a shaped flow: the edge stamps the flow
// identity and queues the packet for shaped release. It reports false when
// the packet was dropped (inactive flow or full shaping queue).
func (e *Edge) Offer(local int, p *packet.Packet) (bool, error) {
	f, err := e.flow(local)
	if err != nil {
		return false, err
	}
	if f.shaper == nil {
		return false, fmt.Errorf("core: flow %d on edge %s is not a shaped flow", local, e.node.Name())
	}
	p.Flow = f.id
	return f.shaper.Offer(p), nil
}

// ShaperQueueLen reports a shaped flow's current backlog.
func (e *Edge) ShaperQueueLen(local int) (int, error) {
	f, err := e.flow(local)
	if err != nil {
		return 0, err
	}
	if f.shaper == nil {
		return 0, fmt.Errorf("core: flow %d on edge %s is not a shaped flow", local, e.node.Name())
	}
	return f.shaper.QueueLen(), nil
}

// ShaperDropped reports packets policed (dropped) at a shaped flow's edge
// queue.
func (e *Edge) ShaperDropped(local int) (int64, error) {
	f, err := e.flow(local)
	if err != nil {
		return 0, err
	}
	if f.shaper == nil {
		return 0, fmt.Errorf("core: flow %d on edge %s is not a shaped flow", local, e.node.Name())
	}
	return f.shaper.Dropped(), nil
}

// decorate stamps the N_w-th out-of-profile data packet with a piggybacked
// marker carrying the flow's normalized excess rate. For best-effort flows
// (no contract) every packet is out of profile, giving the paper's marker
// rate b_g/(K1·w); with a contract only the excess fraction accrues
// credit, so the marker rate is (b_g − min)/(K1·w) and in-profile traffic
// draws no feedback.
func (e *Edge) decorate(f *edgeFlow, p *packet.Packet) {
	rate := f.ctrl.Rate()
	excess := 1.0
	if f.minRate > 0 {
		if rate <= f.minRate {
			return // fully in profile: no markers, no feedback
		}
		excess = (rate - f.minRate) / rate
	}
	nw := e.cfg.K1 * f.weight
	credit := excess
	if e.cfg.MarkBytes {
		// Count out-of-profile bytes in units of MarkBytesUnit so a
		// half-size packet earns half a packet's worth of credit.
		credit = excess * float64(p.SizeBytes) / float64(e.cfg.MarkBytesUnit)
	}
	f.sinceMarker += credit
	if f.sinceMarker >= nw {
		f.sinceMarker -= nw
		p.Marker = e.net.PacketPool().GetMarker(f.id, (rate-f.minRate)/f.weight)
		e.markersInjected++
		e.ctrMarkers.Inc()
	}
}

// MarkersInjected reports how many markers this edge has stamped onto
// outgoing packets.
func (e *Edge) MarkersInjected() int64 { return e.markersInjected }

// flow validates a local id.
func (e *Edge) flow(local int) (*edgeFlow, error) {
	if local < 0 || local >= len(e.flows) {
		return nil, fmt.Errorf("core: unknown flow %d on edge %s", local, e.node.Name())
	}
	return e.flows[local], nil
}

// StartFlow activates a flow: slow-start from the initial rate.
func (e *Edge) StartFlow(local int) error {
	f, err := e.flow(local)
	if err != nil {
		return err
	}
	now := e.net.Now()
	f.ctrl.Start(now)
	f.sinceMarker = 0
	clear(f.feedback)
	f.applied = 0
	f.pipe.Start(f.ctrl.Rate())
	return nil
}

// StopFlow deactivates a flow.
func (e *Edge) StopFlow(local int) error {
	f, err := e.flow(local)
	if err != nil {
		return err
	}
	f.pipe.Stop()
	f.ctrl.Stop()
	clear(f.feedback)
	f.applied = 0
	return nil
}

// FlowID reports the network-wide id of a local flow.
func (e *Edge) FlowID(local int) (packet.FlowID, error) {
	f, err := e.flow(local)
	if err != nil {
		return packet.FlowID{}, err
	}
	return f.id, nil
}

// AllowedRate reports the flow's current allowed transmission rate b_g(f)
// in packets per second (the quantity the paper's "alloted rate" figures
// plot).
func (e *Edge) AllowedRate(local int) (float64, error) {
	f, err := e.flow(local)
	if err != nil {
		return 0, err
	}
	return f.ctrl.Rate(), nil
}

// MinRate reports the flow's contracted minimum rate (0 = best effort).
func (e *Edge) MinRate(local int) (float64, error) {
	f, err := e.flow(local)
	if err != nil {
		return 0, err
	}
	return f.minRate, nil
}

// Weight reports the flow's rate weight.
func (e *Edge) Weight(local int) (float64, error) {
	f, err := e.flow(local)
	if err != nil {
		return 0, err
	}
	return f.weight, nil
}

// Sent reports packets emitted so far for the flow.
func (e *Edge) Sent(local int) (int64, error) {
	f, err := e.flow(local)
	if err != nil {
		return 0, err
	}
	return f.sent(), nil
}

// HandleFeedback records one marker feedback for the flow from the named
// core link. Core routers deliver it through the control plane. Unless
// DeferDecrease is set, the decrease is applied immediately while keeping
// the paper's max-over-cores semantics: the total decrease within an epoch
// is β · max_c count_c.
func (e *Edge) HandleFeedback(local int, coreID string) {
	f, err := e.flow(local)
	if err != nil {
		return // stale feedback for a flow that no longer exists
	}
	if !f.pipe.Active() {
		return
	}
	f.feedback[coreID]++
	if e.cfg.DeferDecrease {
		return
	}
	m := maxFeedback(f.feedback)
	if m <= f.applied {
		return
	}
	delta := m - f.applied
	f.applied = m
	rate := f.ctrl.ApplyIndications(e.net.Now(), float64(delta))
	f.pipe.SetRate(rate)
}

// maxFeedback reports the largest per-core feedback count.
func maxFeedback(counts map[string]int) int {
	m := 0
	for _, c := range counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Start begins the edge's periodic epoch processing. The first tick fires
// after the edge's phase offset (see EdgeConfig.PhaseOffset) so that edges
// across the cloud do not adapt in lock-step.
func (e *Edge) Start() {
	if e.ticker != nil {
		return
	}
	phase := workload.EpochPhase(e.cfg.PhaseOffset, e.cfg.Epoch, e.node.Name())
	sched := e.net.Scheduler()
	e.ticker = sched.MustAfter(phase, func() {
		e.onEpoch()
		sched.RescheduleAfter(e.cfg.Epoch)
	})
}

// Stop cancels epoch processing (flows keep their current rates).
func (e *Edge) Stop() {
	if e.ticker != nil {
		e.ticker.Cancel()
		e.ticker = nil
	}
}

// onEpoch applies the paper's §2.2 adaptation: for each active flow, react
// to the maximum of the marker feedback counts received from any single
// core router this epoch (already applied incrementally unless
// DeferDecrease is set), or grow by α on a quiet epoch.
func (e *Edge) onEpoch() {
	e.net.Scheduler().MarkHandler(sim.KindControl)
	now := e.net.Now()
	for _, f := range e.flows {
		if !f.pipe.Active() {
			continue
		}
		var rate float64
		if e.cfg.DeferDecrease {
			rate = f.ctrl.OnEpoch(now, float64(maxFeedback(f.feedback)))
		} else {
			rate = f.ctrl.TickEpoch(now, f.applied > 0)
		}
		clear(f.feedback)
		f.applied = 0
		f.pipe.SetRate(rate)
	}
}
