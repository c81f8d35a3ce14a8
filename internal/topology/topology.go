// Package topology builds simulated network clouds, including the paper's
// Figure 2 evaluation topology: a chain of four core routers C1–C4 whose
// three inter-core links are the congested links, with edge routers hanging
// off the cores. Twenty flow slots are defined exactly as in §4.1:
//
//   - flows 1–5   cross C1–C2 only            (RTT 240 ms)
//   - flows 6–8   cross C1–C2 and C2–C3       (RTT 320 ms)
//   - flows 9–10  cross all three core links  (RTT 400 ms)
//   - flows 11–12 cross C2–C3 only            (RTT 240 ms)
//   - flows 13–15 cross C2–C3 and C3–C4       (RTT 320 ms)
//   - flows 16–20 cross C3–C4 only            (RTT 240 ms)
//
// Every link runs at 4 Mbps (500 packets/s for 1 KB packets). Link latency
// is 40 ms, which yields the round-trip times the paper reports (240–400 ms
// for 3–5 hops); §4 also quotes a 2 ms latency, which is inconsistent with
// those RTTs — we follow the RTTs. Each flow slot gets its own ingress and
// egress edge node, which is behaviourally identical to the shared edge
// routers in Figure 2 (paths, RTTs, and bottlenecks match).
package topology

import (
	"fmt"
	"time"

	"repro/internal/maxmin"
	"repro/internal/netem"
	"repro/internal/sim"
)

// Paper-standard parameters (§4).
const (
	// LinkRateBps is the bandwidth of every link: 4 Mbps.
	LinkRateBps = 4e6
	// LinkDelay is the per-hop propagation latency that reproduces the
	// paper's 240–400 ms RTTs.
	LinkDelay = 40 * time.Millisecond
	// QueueCapacity is the router buffer: 40 packets.
	QueueCapacity = 40
	// PacketsPerSecond is the link service rate in the paper's 1 KB
	// packets: 500 pkt/s.
	PacketsPerSecond = 500.0
)

// Core link identifiers in the paper topology.
const (
	LinkC1C2 = "C1->C2"
	LinkC2C3 = "C2->C3"
	LinkC3C4 = "C3->C4"
)

// CoreNames lists the core routers in chain order.
func CoreNames() []string { return []string{"C1", "C2", "C3", "C4"} }

// Placement describes one flow slot: where it enters and leaves the cloud
// and which congested core links it crosses.
type Placement struct {
	// Index is the paper's 1-based flow number.
	Index int
	// Weight is the flow's rate weight.
	Weight float64
	// Ingress and Egress are the edge node names.
	Ingress, Egress string
	// CoreLinks lists the congested links the flow crosses, for the
	// max-min oracle.
	CoreLinks []string
	// Relays names edge nodes along the path where the flow is re-shaped
	// into a fresh control segment (N-cloud concatenation boundaries).
	// Empty for single-cloud flows.
	Relays []string
}

// Cloud is a built topology plus its flow placements.
type Cloud struct {
	// Net is the simulated network; its routes resolve on first use.
	Net *netem.Network
	// Placements holds the flow slots in index order.
	Placements []Placement
	// CoreLinks maps core link id to the *netem.Link carrying congested
	// traffic.
	CoreLinks map[string]*netem.Link
	// CoreNodes lists the nodes that receive core-router behaviour, in
	// deterministic order.
	CoreNodes []string
}

// Options configures topology construction.
type Options struct {
	// NumFlows is how many of the 20 paper flow slots to create (1–20).
	NumFlows int
	// Weights maps flow index to rate weight; missing entries default to
	// DefaultWeight.
	Weights map[int]float64
	// DefaultWeight is the weight for flows not listed in Weights
	// (0 defaults to 1).
	DefaultWeight float64
	// CoreQueue, when non-nil, supplies the queue discipline for each core
	// link (called once per core link, in chain order); now reads the
	// simulation clock, for disciplines like RED that age averages over
	// idle time. Nil gives the paper's 40-packet drop-tail.
	CoreQueue func(linkName string, now func() time.Duration) netem.Discipline
	// LinkDelay overrides the per-hop latency (0 = paper default).
	LinkDelay time.Duration
	// LinkRateBps overrides the link bandwidth (0 = paper default).
	LinkRateBps float64
}

// ingressName / egressName name the per-flow edge nodes.
func ingressName(i int) string { return fmt.Sprintf("in%d", i) }
func egressName(i int) string  { return fmt.Sprintf("out%d", i) }

// slot describes the static path of each paper flow index.
type slot struct {
	entry, exit string   // core routers the edges attach to
	links       []string // congested links crossed
}

func paperSlot(i int) (slot, error) {
	switch {
	case i >= 1 && i <= 5:
		return slot{"C1", "C2", []string{LinkC1C2}}, nil
	case i >= 6 && i <= 8:
		return slot{"C1", "C3", []string{LinkC1C2, LinkC2C3}}, nil
	case i == 9 || i == 10:
		return slot{"C1", "C4", []string{LinkC1C2, LinkC2C3, LinkC3C4}}, nil
	case i == 11 || i == 12:
		return slot{"C2", "C3", []string{LinkC2C3}}, nil
	case i >= 13 && i <= 15:
		return slot{"C2", "C4", []string{LinkC2C3, LinkC3C4}}, nil
	case i >= 16 && i <= 20:
		return slot{"C3", "C4", []string{LinkC3C4}}, nil
	default:
		return slot{}, fmt.Errorf("topology: flow index %d outside 1..20", i)
	}
}

// Paper builds the Figure 2 evaluation topology on the given scheduler.
func Paper(sched *sim.Scheduler, opts Options) (*Cloud, error) {
	if opts.NumFlows <= 0 || opts.NumFlows > 20 {
		return nil, fmt.Errorf("topology: NumFlows %d outside 1..20", opts.NumFlows)
	}
	return buildChain(sched, CoreNames(), opts.NumFlows, opts.Weights, opts, paperSlot)
}

// buildChain builds a chain of core routers, a forward link (with the
// CoreQueue discipline) and its reverse link between each neighbouring pair,
// then for each flow i in 1..numFlows an ingress and an egress edge node
// wired to the cores slotOf(i) names. Rates and delays default to the paper
// values; weights missing a flow give it opts.DefaultWeight.
func buildChain(sched *sim.Scheduler, cores []string, numFlows int, weights map[int]float64, opts Options, slotOf func(int) (slot, error)) (*Cloud, error) {
	defWeight := opts.DefaultWeight
	if defWeight <= 0 {
		defWeight = 1
	}
	delay := opts.LinkDelay
	if delay <= 0 {
		delay = LinkDelay
	}
	rate := opts.LinkRateBps
	if rate <= 0 {
		rate = LinkRateBps
	}

	net := netem.New(sched)
	for _, c := range cores {
		if _, err := net.AddNode(c); err != nil {
			return nil, err
		}
	}

	coreLinks := make(map[string]*netem.Link, len(cores)-1)
	for i := 0; i+1 < len(cores); i++ {
		name := cores[i] + "->" + cores[i+1]
		var q netem.Discipline
		if opts.CoreQueue != nil {
			q = opts.CoreQueue(name, sched.Now)
		}
		fwd, err := net.AddLink(cores[i], cores[i+1], netem.LinkConfig{
			RateBps: rate, Delay: delay, Queue: q,
		})
		if err != nil {
			return nil, err
		}
		if _, err := net.AddLink(cores[i+1], cores[i], netem.LinkConfig{
			RateBps: rate, Delay: delay,
		}); err != nil {
			return nil, err
		}
		coreLinks[name] = fwd
	}

	placements := make([]Placement, 0, numFlows)
	for i := 1; i <= numFlows; i++ {
		sl, err := slotOf(i)
		if err != nil {
			return nil, err
		}
		in, out := ingressName(i), egressName(i)
		if _, err := net.AddNode(in); err != nil {
			return nil, err
		}
		if _, err := net.AddNode(out); err != nil {
			return nil, err
		}
		if _, _, err := net.Connect(in, sl.entry, netem.LinkConfig{RateBps: rate, Delay: delay}); err != nil {
			return nil, err
		}
		if _, _, err := net.Connect(sl.exit, out, netem.LinkConfig{RateBps: rate, Delay: delay}); err != nil {
			return nil, err
		}
		w := defWeight
		if v, ok := weights[i]; ok {
			w = v
		}
		links := make([]string, len(sl.links))
		copy(links, sl.links)
		placements = append(placements, Placement{
			Index:     i,
			Weight:    w,
			Ingress:   in,
			Egress:    out,
			CoreLinks: links,
		})
	}

	return &Cloud{Net: net, Placements: placements, CoreLinks: coreLinks, CoreNodes: cores}, nil
}

// MaxMinProblem translates the cloud's placements (restricted to the given
// active flow indices; nil means all) into a weighted max-min instance over
// the congested core links, with capacities in packets/second.
func (c *Cloud) MaxMinProblem(active map[int]bool) maxmin.Problem {
	capacity := make(map[string]float64, len(c.CoreLinks))
	for name, l := range c.CoreLinks {
		capacity[name] = l.PacketsPerSecond(1000)
	}
	flows := make(map[string]maxmin.Flow, len(c.Placements))
	for _, pl := range c.Placements {
		if active != nil && !active[pl.Index] {
			continue
		}
		flows[fmt.Sprintf("%d", pl.Index)] = maxmin.Flow{
			Weight: pl.Weight,
			Links:  pl.CoreLinks,
		}
	}
	return maxmin.Problem{Capacity: capacity, Flows: flows}
}

// WeightsFig3 returns the §4.1 weight profile: flows 5 and 15 weight 3;
// flows 1, 11, 16 weight 1; everything else weight 2.
func WeightsFig3() map[int]float64 {
	return map[int]float64{5: 3, 15: 3, 1: 1, 11: 1, 16: 1}
}

// WeightsFig7 returns the §4.3 profile: flows 1, 11, 16 weight 1; flows 5,
// 10, 15 weight 3; the rest weight 2.
func WeightsFig7() map[int]float64 {
	return map[int]float64{1: 1, 11: 1, 16: 1, 5: 3, 10: 3, 15: 3}
}

// WeightsCeilHalf returns the §4.2 profile for n flows: flow i has weight
// ⌈i/2⌉ (five distinct weights for n=10).
func WeightsCeilHalf(n int) map[int]float64 {
	w := make(map[int]float64, n)
	for i := 1; i <= n; i++ {
		w[i] = float64((i + 1) / 2)
	}
	return w
}

// Dumbbell builds a minimal two-router topology (E_in[i] -> A -> B ->
// E_out[i]) with a single bottleneck A->B. It is used by unit tests,
// examples, and the quickstart; rates/delays default to the paper values.
func Dumbbell(sched *sim.Scheduler, numFlows int, weights map[int]float64, opts Options) (*Cloud, error) {
	if numFlows <= 0 {
		return nil, fmt.Errorf("topology: numFlows %d must be positive", numFlows)
	}
	bottleneck := slot{"A", "B", []string{"A->B"}}
	return buildChain(sched, []string{"A", "B"}, numFlows, weights, opts, func(int) (slot, error) { return bottleneck, nil })
}
