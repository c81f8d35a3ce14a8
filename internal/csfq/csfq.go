// Package csfq implements weighted Core-Stateless Fair Queueing (Stoica,
// Shenker, Zhang — SIGCOMM'98), the baseline the paper compares Corelite
// against (§4.2–4.3).
//
// Edge routers estimate each flow's rate with exponential averaging and
// label every packet with the normalized rate r/w. Core routers estimate a
// per-link fair share α and drop arriving packets with probability
// max(0, 1 − α/label), relabelling accepted packets with min(label, α).
// Sources react to losses with the same slow-start + linear-increase /
// loss-proportional-decrease agents used for Corelite (package adapt), as
// in the paper's evaluation.
package csfq

import (
	"fmt"
	"math"
	"time"

	"repro/internal/adapt"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// EdgeConfig parameterizes a CSFQ edge router.
type EdgeConfig struct {
	// Epoch is the adaptation period of the source agent (100 ms).
	Epoch time.Duration
	// K is the averaging constant for the per-flow rate estimate
	// (paper: 100 ms).
	K time.Duration
	// Adapt parameterizes the rate controller.
	Adapt adapt.Config
	// PhaseOffset delays the first epoch tick; zero derives a
	// deterministic per-node phase so edges do not adapt in lock-step
	// (see workload.EpochPhase).
	PhaseOffset time.Duration
}

// DefaultEdgeConfig returns the paper's CSFQ edge settings.
func DefaultEdgeConfig() EdgeConfig {
	return EdgeConfig{
		Epoch: 100 * time.Millisecond,
		K:     100 * time.Millisecond,
		Adapt: adapt.DefaultConfig(),
	}
}

// Edge is a CSFQ ingress edge: it shapes flows to the agent rate, estimates
// each flow's rate by exponential averaging, and labels every packet with
// the flow's normalized rate estimate.
type Edge struct {
	net  *netem.Network
	node *netem.Node
	cfg  EdgeConfig

	flows  []*edgeFlow
	ticker *sim.Event
}

type edgeFlow struct {
	id     packet.FlowID
	weight float64
	src    *workload.Source
	ctrl   *adapt.Controller

	est      float64 // exponential average of the emission rate, pkt/s
	lastEmit time.Duration
	hasEmit  bool
	losses   int // this epoch
}

// NewEdge attaches a CSFQ edge to the ingress node.
func NewEdge(net *netem.Network, node *netem.Node, cfg EdgeConfig) *Edge {
	if cfg.Epoch <= 0 {
		cfg.Epoch = 100 * time.Millisecond
	}
	if cfg.K <= 0 {
		cfg.K = 100 * time.Millisecond
	}
	if cfg.Adapt == (adapt.Config{}) {
		cfg.Adapt = adapt.DefaultConfig()
	}
	return &Edge{net: net, node: node, cfg: cfg}
}

// Node reports the ingress node this edge controls.
func (e *Edge) Node() *netem.Node { return e.node }

// AddFlow registers a flow toward dst with the given rate weight.
func (e *Edge) AddFlow(dst string, weight float64) (int, error) {
	if weight <= 0 {
		return 0, fmt.Errorf("csfq: flow weight %v must be positive", weight)
	}
	local := len(e.flows)
	id := packet.FlowID{Edge: e.node.Name(), Local: local}
	f := &edgeFlow{
		id:     id,
		weight: weight,
		ctrl:   adapt.NewController(e.cfg.Adapt),
	}
	f.src = workload.NewSource(e.net.Scheduler(), workload.SourceConfig{
		Flow:   id,
		Dst:    dst,
		Inject: e.node.Inject,
		Pool:   e.net.PacketPool(),
	})
	f.src.Decorate = func(p *packet.Packet) { e.label(f, p) }
	e.flows = append(e.flows, f)
	e.registerFlowObs(f)
	return local, nil
}

// registerFlowObs publishes a new flow's agent rate and adaptation phase as
// gauges and wires its controller's phase transitions into the control
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

// label stamps a packet with the flow's current normalized rate estimate,
// updating the exponential average from the inter-emission gap:
// r ← (1 − e^(−T/K))·(1/T) + e^(−T/K)·r.
func (e *Edge) label(f *edgeFlow, p *packet.Packet) {
	now := e.net.Now()
	if f.hasEmit {
		gap := (now - f.lastEmit).Seconds()
		if gap <= 0 {
			gap = 1e-9
		}
		w := math.Exp(-gap / e.cfg.K.Seconds())
		f.est = (1-w)*(1/gap) + w*f.est
	}
	f.lastEmit = now
	f.hasEmit = true
	p.Label = f.est / f.weight
}

func (e *Edge) flow(local int) (*edgeFlow, error) {
	if local < 0 || local >= len(e.flows) {
		return nil, fmt.Errorf("csfq: unknown flow %d on edge %s", local, e.node.Name())
	}
	return e.flows[local], nil
}

// StartFlow activates a flow in slow-start.
func (e *Edge) StartFlow(local int) error {
	f, err := e.flow(local)
	if err != nil {
		return err
	}
	now := e.net.Now()
	f.ctrl.Start(now)
	f.est = f.ctrl.Rate()
	f.hasEmit = false
	f.losses = 0
	f.src.Start(f.ctrl.Rate())
	return nil
}

// StopFlow deactivates a flow.
func (e *Edge) StopFlow(local int) error {
	f, err := e.flow(local)
	if err != nil {
		return err
	}
	f.src.Stop()
	f.ctrl.Stop()
	f.losses = 0
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

// AllowedRate reports the agent's current sending rate for the flow.
func (e *Edge) AllowedRate(local int) (float64, error) {
	f, err := e.flow(local)
	if err != nil {
		return 0, err
	}
	return f.ctrl.Rate(), nil
}

// Weight reports the flow's rate weight.
func (e *Edge) Weight(local int) (float64, error) {
	f, err := e.flow(local)
	if err != nil {
		return 0, err
	}
	return f.weight, nil
}

// HandleLoss records one lost packet for the flow (the CSFQ congestion
// indication). The experiment harness delivers drops through the control
// plane with the drop-point-to-edge latency.
func (e *Edge) HandleLoss(local int) {
	f, err := e.flow(local)
	if err != nil {
		return
	}
	if !f.src.Active() {
		return
	}
	f.losses++
}

// Start begins the edge's periodic epoch processing. The first tick fires
// after the edge's phase offset so that edges across the cloud do not adapt
// in lock-step.
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

// Stop cancels epoch processing.
func (e *Edge) Stop() {
	if e.ticker != nil {
		e.ticker.Cancel()
		e.ticker = nil
	}
}

func (e *Edge) onEpoch() {
	e.net.Scheduler().MarkHandler(sim.KindControl)
	now := e.net.Now()
	for _, f := range e.flows {
		if !f.src.Active() {
			continue
		}
		losses := f.losses
		f.losses = 0
		rate := f.ctrl.OnEpoch(now, float64(losses))
		f.src.SetRate(rate)
	}
}
