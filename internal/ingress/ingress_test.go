package ingress

import (
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// counting is a toy scheme: it stamps every packet with the flow's count of
// stamps so far and halves the rate every epoch.
type counting struct {
	stamped int
	resets  int
}

func fixture(t *testing.T, reg *obs.Registry) (*sim.Scheduler, *Edge[counting], *[]*packet.Packet) {
	t.Helper()
	s := sim.NewScheduler()
	net := netem.New(s)
	for _, n := range []string{"E", "D"} {
		if _, err := net.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink("E", "D", netem.LinkConfig{RateBps: 4e6, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	var got []*packet.Packet
	net.Node("D").SetApp(appFunc(func(p *packet.Packet) { got = append(got, p) }))
	net.SetObs(reg)
	e := New(net, net.Node("E"), Config[counting]{
		Scheme:      "toy",
		Epoch:       100 * time.Millisecond,
		PhaseOffset: 50 * time.Millisecond,
		Reset:       func(f *Flow[counting]) { f.State.resets++ },
		EndEpoch: func(f *Flow[counting], _ time.Duration) float64 {
			return f.Ctrl.Rate() / 2
		},
	})
	return s, &e, &got
}

type appFunc func(*packet.Packet)

func (f appFunc) Receive(p *packet.Packet) { f(p) }

func stamp(f *Flow[counting], p *packet.Packet) {
	f.State.stamped++
	p.Label = float64(f.State.stamped)
}

func TestEdgeFlowLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	s, e, got := fixture(t, reg)
	f, err := e.Add(2, adapt.DefaultConfig(), workload.PacerConfig{Dst: "D"})
	if err != nil {
		t.Fatal(err)
	}
	f.Pacer.Decorate = func(p *packet.Packet) { stamp(f, p) }
	if f.ID != (packet.FlowID{Edge: "E", Local: 0}) || e.Node().Name() != "E" {
		t.Fatalf("flow id %v on node %s", f.ID, e.Node().Name())
	}
	if err := e.StartFlow(0); err != nil {
		t.Fatal(err)
	}
	start := f.Ctrl.Rate()
	e.Start()
	e.Start() // idempotent: one ticker
	if err := s.Run(60 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The first tick at the 50 ms phase offset paced the flow at the rate
	// EndEpoch returned.
	if r, _ := e.AllowedRate(0); r != f.Ctrl.Rate() {
		t.Errorf("AllowedRate %v, controller rate %v", r, f.Ctrl.Rate())
	}
	if f.Pacer.Rate() != start/2 {
		t.Errorf("pacer rate %v, want the epoch's %v", f.Pacer.Rate(), start/2)
	}
	if len(*got) == 0 || (*got)[0].Label != 1 {
		t.Fatalf("no stamped packet delivered: %v", *got)
	}
	if w, _ := e.Weight(0); w != 2 {
		t.Errorf("weight %v", w)
	}
	if id, _ := e.FlowID(0); id != f.ID {
		t.Errorf("FlowID %v", id)
	}
	if err := e.StopFlow(0); err != nil {
		t.Fatal(err)
	}
	if f.State.resets != 2 || f.Pacer.Active() {
		t.Errorf("resets %d (want start + stop), pacer active %v", f.State.resets, f.Pacer.Active())
	}
	// A stopped flow is skipped by the epoch.
	rate := f.Ctrl.Rate()
	if err := s.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if f.Ctrl.Rate() != rate {
		t.Errorf("stopped flow adapted: %v -> %v", rate, f.Ctrl.Rate())
	}
	// No tick runs after Stop: a restarted flow keeps its rate, where every
	// tick would halve it.
	e.Stop()
	e.Stop()
	if err := e.StartFlow(0); err != nil {
		t.Fatal(err)
	}
	rate = f.Pacer.Rate()
	if err := s.Run(s.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Pacer.Rate() != rate {
		t.Errorf("a tick ran after Stop: pacer rate %v -> %v", rate, f.Pacer.Rate())
	}
	if err := e.StopFlow(0); err != nil {
		t.Fatal(err)
	}
	// The rate and phase gauges exist, and the phase changes were emitted.
	var gauges []string
	for _, g := range reg.Gauges() {
		if name := g.Name(); strings.HasPrefix(name, obs.PrefixRate) || strings.HasPrefix(name, obs.PrefixPhase) {
			gauges = append(gauges, name)
		}
	}
	if want := obs.PrefixRate + "E/0," + obs.PrefixPhase + "E/0"; strings.Join(gauges, ",") != want {
		t.Errorf("gauges %v, want %s", gauges, want)
	}
	var details []string
	for _, ev := range reg.Events() {
		if ev.Kind == obs.KindPhaseChange {
			details = append(details, ev.Detail)
		}
	}
	if len(details) < 2 || !strings.HasPrefix(details[0], "stopped->") || !strings.HasSuffix(details[len(details)-1], "->stopped") {
		t.Errorf("phase-change details %v", details)
	}
}

func TestEdgeErrors(t *testing.T) {
	_, e, _ := fixture(t, nil)
	if _, err := e.Add(0, adapt.DefaultConfig(), workload.PacerConfig{}); err == nil || !strings.HasPrefix(err.Error(), "toy: flow weight") {
		t.Errorf("zero weight: %v", err)
	}
	acfg := adapt.DefaultConfig()
	acfg.MinRate = -1
	if _, err := e.Add(1, acfg, workload.PacerConfig{}); err == nil || !strings.Contains(err.Error(), "minimum rate") {
		t.Errorf("negative floor: %v", err)
	}
	want := "toy: unknown flow 3 on edge E"
	for name, err := range map[string]error{
		"StartFlow": e.StartFlow(3),
		"StopFlow":  e.StopFlow(3),
		"FlowID":    second(e.FlowID(3)),
		"Rate":      second(e.AllowedRate(3)),
		"Weight":    second(e.Weight(3)),
	} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %q", name, err, want)
		}
	}
}

func second[T any](_ T, err error) error { return err }
