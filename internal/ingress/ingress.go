// Package ingress is the edge router both schemes share. The paper keeps all
// per-flow state at the edges — an allowed rate b_g(f), its slow-start +
// LIMD loop (package adapt) and a shaper — and the weighted-CSFQ baseline
// it is measured against has the same edge. Edge owns that common half: the
// flow table, each flow's controller and token-bucket pacer, the rate and
// phase telemetry, and the phase-offset epoch ticker. A scheme supplies
// only its paper mechanism: the stamp its pacer's Decorate writes on a
// packet (a Corelite marker, a CSFQ label), the per-flow state that stamp
// and its congestion signal need, and how an epoch turns that signal into
// the next rate.
package ingress

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

// Ticker runs a node's periodic epoch process on one registered handler
// that re-arms itself: the first tick after the node's phase offset (see
// workload.EpochPhase), then one per epoch, each counted as control work.
// Stop withdraws the pending tick the way workload.Pacer withdraws a
// release: it bumps the generation, and the stale entry fires as a no-op.
type Ticker struct {
	sched   *sim.Scheduler
	hid     sim.HandlerID
	gen     uint32
	running bool
	epoch   time.Duration
	tick    func()
}

// Start arms the ticker; it is a no-op while the ticker runs.
func (t *Ticker) Start(sched *sim.Scheduler, node string, offset, epoch time.Duration, tick func()) {
	if t.running {
		return
	}
	if t.sched == nil {
		t.sched, t.hid = sched, sched.RegisterHandler(t.fire)
	}
	t.running, t.epoch, t.tick = true, epoch, tick
	sched.PostHandler(workload.EpochPhase(offset, epoch, node), t.hid, t.gen)
}

// fire is the registered tick handler; gen is the generation it was posted
// with.
func (t *Ticker) fire(gen uint32) {
	t.sched.MarkHandler(sim.KindControl)
	if gen != t.gen {
		return // stopped after posting
	}
	t.tick()
	t.sched.RescheduleAfter(t.epoch)
}

// Stop withdraws the pending tick: no tick runs after it returns.
func (t *Ticker) Stop() {
	if t.running {
		t.running = false
		t.gen++
	}
}

// Flow is one flow's edge state: the shared control loop plus State, the
// scheme's own per-flow fields.
type Flow[S any] struct {
	ID     packet.FlowID
	Weight float64
	Ctrl   *adapt.Controller
	Pacer  *workload.Pacer
	State  S
}

// Config is what a scheme plugs into an Edge.
type Config[S any] struct {
	// Scheme prefixes error messages ("core", "csfq").
	Scheme string
	// Epoch is the adaptation period; PhaseOffset delays the first tick
	// (zero derives one from the node name, see workload.EpochPhase).
	Epoch       time.Duration
	PhaseOffset time.Duration
	// Reset clears the scheme's per-flow state. It runs when a flow starts,
	// after its controller started, and when it stops.
	Reset func(f *Flow[S])
	// EndEpoch consumes an active flow's epoch of congestion signal and
	// returns its rate for the next epoch.
	EndEpoch func(f *Flow[S], now time.Duration) float64
}

// Edge is the scheme-independent half of an ingress edge router.
type Edge[S any] struct {
	net    *netem.Network
	node   *netem.Node
	cfg    Config[S]
	flows  []*Flow[S]
	ticker Ticker
}

// New returns an edge for the ingress node. A scheme embeds the value in
// its own edge type.
func New[S any](net *netem.Network, node *netem.Node, cfg Config[S]) Edge[S] {
	return Edge[S]{net: net, node: node, cfg: cfg}
}

// Node reports the ingress node this edge controls.
func (e *Edge[S]) Node() *netem.Node { return e.node }

// Add registers a flow with the given rate weight, controller settings
// (acfg.MinRate is its contracted floor) and pacer, whose flow, injection
// point and packet pool the edge fills in. The scheme sets the pacer's
// Decorate to its stamp. The flow is created inactive; call StartFlow.
func (e *Edge[S]) Add(weight float64, acfg adapt.Config, pc workload.PacerConfig) (*Flow[S], error) {
	if weight <= 0 {
		return nil, fmt.Errorf("%s: flow weight %v must be positive", e.cfg.Scheme, weight)
	}
	if acfg.MinRate < 0 {
		return nil, fmt.Errorf("%s: flow minimum rate %v must be non-negative", e.cfg.Scheme, acfg.MinRate)
	}
	f := &Flow[S]{
		ID:     packet.FlowID{Edge: e.node.Name(), Local: len(e.flows)},
		Weight: weight,
		Ctrl:   adapt.NewController(acfg),
	}
	pc.Flow = f.ID
	pc.Inject = e.node.Inject
	pc.Pool = e.net.PacketPool()
	f.Pacer = workload.NewPacer(e.net.Scheduler(), pc)
	// Host packets policed at the edge never enter the cloud, so the
	// pacer's drop hook is their release point.
	f.Pacer.OnDrop = e.net.PacketPool().Put
	e.flows = append(e.flows, f)
	e.registerFlowObs(f)
	return f, nil
}

// registerFlowObs publishes a new flow's allowed rate and adaptation phase
// as gauges and wires its controller's phase transitions into the control
// event stream. No-op when the network has no registry attached.
func (e *Edge[S]) registerFlowObs(f *Flow[S]) {
	reg := e.net.Obs()
	if !reg.Enabled() {
		return
	}
	id := f.ID.String()
	reg.GaugeFunc(obs.PrefixRate+id, f.Ctrl.Rate)
	reg.GaugeFunc(obs.PrefixPhase+id, func() float64 { return float64(f.Ctrl.Phase()) })
	node := e.node.Name()
	f.Ctrl.Hook = func(oldPhase, newPhase adapt.Phase, oldRate, newRate float64) {
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

// Flow validates a local id and returns its flow.
func (e *Edge[S]) Flow(local int) (*Flow[S], error) {
	if local < 0 || local >= len(e.flows) {
		return nil, fmt.Errorf("%s: unknown flow %d on edge %s", e.cfg.Scheme, local, e.node.Name())
	}
	return e.flows[local], nil
}

// StartFlow activates a flow: slow-start from the initial rate.
func (e *Edge[S]) StartFlow(local int) error {
	f, err := e.Flow(local)
	if err != nil {
		return err
	}
	f.Ctrl.Start(e.net.Now())
	e.cfg.Reset(f)
	f.Pacer.Start(f.Ctrl.Rate())
	return nil
}

// StopFlow deactivates a flow.
func (e *Edge[S]) StopFlow(local int) error {
	f, err := e.Flow(local)
	if err != nil {
		return err
	}
	f.Pacer.Stop()
	f.Ctrl.Stop()
	e.cfg.Reset(f)
	return nil
}

// FlowID reports the network-wide id of a local flow.
func (e *Edge[S]) FlowID(local int) (packet.FlowID, error) {
	f, err := e.Flow(local)
	if err != nil {
		return packet.FlowID{}, err
	}
	return f.ID, nil
}

// AllowedRate reports the flow's current allowed transmission rate b_g(f)
// in packets per second (the quantity the paper's "alloted rate" figures
// plot).
func (e *Edge[S]) AllowedRate(local int) (float64, error) {
	f, err := e.Flow(local)
	if err != nil {
		return 0, err
	}
	return f.Ctrl.Rate(), nil
}

// Weight reports the flow's rate weight.
func (e *Edge[S]) Weight(local int) (float64, error) {
	f, err := e.Flow(local)
	if err != nil {
		return 0, err
	}
	return f.Weight, nil
}

// Start begins the edge's periodic epoch processing. The first tick fires
// after the edge's phase offset so that edges across the cloud do not adapt
// in lock-step.
func (e *Edge[S]) Start() {
	e.ticker.Start(e.net.Scheduler(), e.node.Name(), e.cfg.PhaseOffset, e.cfg.Epoch, e.onEpoch)
}

// Stop cancels epoch processing (flows keep their current rates).
func (e *Edge[S]) Stop() { e.ticker.Stop() }

// onEpoch hands every active flow's epoch to the scheme and paces the flow
// at the rate it returns.
func (e *Edge[S]) onEpoch() {
	now := e.net.Now()
	for _, f := range e.flows {
		if !f.Pacer.Active() {
			continue
		}
		f.Pacer.SetRate(e.cfg.EndEpoch(f, now))
	}
}
