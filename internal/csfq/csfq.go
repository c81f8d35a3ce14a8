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
	"time"

	"repro/internal/adapt"
	"repro/internal/ingress"
	"repro/internal/netem"
	"repro/internal/packet"
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

// Edge is a CSFQ ingress edge: the shared ingress edge (flow table, rate
// controllers, pacers, epoch ticker) plus CSFQ's mechanism — every packet
// labelled with the flow's normalized rate estimate r/w, and a decrease
// driven by the epoch's loss count.
type Edge struct {
	ingress.Edge[labelState]
	net *netem.Network
	cfg EdgeConfig
}

// edgeFlow is one flow on a CSFQ edge.
type edgeFlow = ingress.Flow[labelState]

// labelState is CSFQ's per-flow edge state.
type labelState struct {
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
	return &Edge{net: net, cfg: cfg, Edge: ingress.New(net, node, ingress.Config[labelState]{
		Scheme:      "csfq",
		Epoch:       cfg.Epoch,
		PhaseOffset: cfg.PhaseOffset,
		Reset: func(f *edgeFlow) {
			f.State = labelState{est: f.Ctrl.Rate()}
		},
		EndEpoch: func(f *edgeFlow, now time.Duration) float64 {
			losses := f.State.losses
			f.State.losses = 0
			return f.Ctrl.OnEpoch(now, float64(losses))
		},
	})}
}

// AddFlow registers a flow toward dst with the given rate weight.
func (e *Edge) AddFlow(dst string, weight float64) (int, error) {
	f, err := e.Add(weight, e.cfg.Adapt, workload.PacerConfig{Dst: dst})
	if err != nil {
		return 0, err
	}
	f.Pacer.Decorate = func(p *packet.Packet) { e.label(f, p) }
	return f.ID.Local, nil
}

// label stamps a packet with the flow's current normalized rate estimate,
// folding the inter-emission gap into the exponential average.
func (e *Edge) label(f *edgeFlow, p *packet.Packet) {
	st := &f.State
	now := e.net.Now()
	st.est = ewmaRate(st.est, st.lastEmit, now, e.cfg.K, st.hasEmit)
	st.lastEmit = now
	st.hasEmit = true
	p.Label = st.est / f.Weight
}

// HandleLoss records one lost packet for the flow (the CSFQ congestion
// indication). The experiment harness delivers drops through the control
// plane with the drop-point-to-edge latency.
func (e *Edge) HandleLoss(local int) {
	if f, err := e.Flow(local); err == nil && f.Pacer.Active() {
		f.State.losses++
	}
}
