package topospec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/topospec"
)

// refRoutes is the routing the packet engine used before routes became
// per-flow link paths, kept as the reference the route-equivalence tests
// compare against: a string-keyed next-hop table per node over every
// destination, filled by an all-pairs Dijkstra (or, when every flow pins its
// path, by neighbor routes), pinned paths layered on top, and a propagation
// latency cache over node pairs.
type refRoutes struct {
	net       *netem.Network
	nodes     []string
	nextHop   map[string]map[string]string
	pathDelay map[[2]string]time.Duration
}

// newRefRoutes starts the reference routing of net, whose nodes are named
// nodes, with empty tables.
func newRefRoutes(net *netem.Network, nodes []string) *refRoutes {
	r := &refRoutes{net: net, nodes: nodes, nextHop: make(map[string]map[string]string), pathDelay: make(map[[2]string]time.Duration)}
	for _, name := range nodes {
		r.nextHop[name] = make(map[string]string)
	}
	return r
}

// computeRoutes is the old Network.ComputeRoutes.
func (r *refRoutes) computeRoutes() {
	for _, src := range r.nodes {
		dist, firstHop := r.dijkstra(src)
		r.nextHop[src] = firstHop
		for dst, d := range dist {
			r.pathDelay[[2]string{src, dst}] = d
		}
	}
}

// dijkstra is the old map-based single-source pass: the propagation-latency
// distance and the first hop toward every reachable node.
func (r *refRoutes) dijkstra(src string) (map[string]time.Duration, map[string]string) {
	type entry struct {
		dist time.Duration
		hops int
	}
	dist := map[string]entry{src: {}}
	firstHop := make(map[string]string)
	visited := make(map[string]bool)
	for {
		var cur string
		found := false
		for name, e := range dist {
			if visited[name] {
				continue
			}
			if !found {
				cur, found = name, true
				continue
			}
			c := dist[cur]
			if e.dist < c.dist || (e.dist == c.dist && e.hops < c.hops) ||
				(e.dist == c.dist && e.hops == c.hops && name < cur) {
				cur = name
			}
		}
		if !found {
			break
		}
		visited[cur] = true
		for _, l := range r.net.Node(cur).Links() { // sorted by neighbor name
			next := l.To().Name()
			cand := entry{dist[cur].dist + l.Delay(), dist[cur].hops + 1}
			old, seen := dist[next]
			if !seen || cand.dist < old.dist || (cand.dist == old.dist && cand.hops < old.hops) {
				dist[next] = cand
				if cur == src {
					firstHop[next] = next
				} else {
					firstHop[next] = firstHop[cur]
				}
			}
		}
	}
	out := make(map[string]time.Duration, len(dist))
	for name, e := range dist {
		out[name] = e.dist
	}
	return out, firstHop
}

// neighborRoutes is the old InstallNeighborRoutes.
func (r *refRoutes) neighborRoutes() {
	for _, l := range r.net.Links() {
		from, to := l.From().Name(), l.To().Name()
		r.nextHop[from][to] = to
		r.pathDelay[[2]string{from, to}] = l.Delay()
	}
}

// installRoute is the old InstallRoute: next hops toward the path's last
// node, forward latencies between every ordered pair of the path, and
// reverse latencies as far as the reverse links reach.
func (r *refRoutes) installRoute(path []string) {
	dst := path[len(path)-1]
	for i := 0; i+1 < len(path); i++ {
		r.nextHop[path[i]][dst] = path[i+1]
	}
	for i := range path {
		fwd := time.Duration(0)
		for j := i + 1; j < len(path); j++ {
			fwd += r.net.Node(path[j-1]).LinkTo(path[j]).Delay()
			r.pathDelay[[2]string{path[i], path[j]}] = fwd
		}
		rev := time.Duration(0)
		for j := i - 1; j >= 0; j-- {
			back := r.net.Node(path[j+1]).LinkTo(path[j])
			if back == nil {
				break
			}
			rev += back.Delay()
			r.pathDelay[[2]string{path[i], path[j]}] = rev
		}
	}
}

// path is the old hop-by-hop Network.Path walk.
func (r *refRoutes) path(from, to string) ([]string, bool) {
	path := []string{from}
	for cur := from; cur != to; {
		next, ok := r.nextHop[cur][to]
		if !ok || len(path) > len(r.nextHop) {
			return nil, false
		}
		path = append(path, next)
		cur = next
	}
	return path, true
}

// specRefRoutes replays the old Spec.Build routing on a network wired like
// the spec's cloud.
func specRefRoutes(s *topospec.Spec, net *netem.Network) *refRoutes {
	var nodes []string
	for _, n := range s.Nodes {
		nodes = append(nodes, n.Name)
	}
	r := newRefRoutes(net, nodes)
	allPinned := true
	for _, f := range s.Flows {
		allPinned = allPinned && len(f.Via) > 0
	}
	if allPinned {
		r.neighborRoutes()
	} else {
		r.computeRoutes()
	}
	for _, f := range sortedFlows(s) {
		if len(f.Via) == 0 {
			continue
		}
		r.installRoute(f.Via)
		segs := controlSegmentsOf(f.Via, f.Relays)
		for _, seg := range segs[:len(segs)-1] {
			r.installRoute(seg)
		}
	}
	return r
}

func sortedFlows(s *topospec.Spec) []topospec.FlowSpec {
	flows := slices.Clone(s.Flows)
	sort.Slice(flows, func(i, j int) bool { return flows[i].Index < flows[j].Index })
	return flows
}

// controlSegmentsOf splits a path at its relays: each segment runs from one
// control edge (the ingress or a relay) to the next (or the egress).
func controlSegmentsOf(path, relays []string) [][]string {
	var segs [][]string
	start := 0
	for i := 1; i < len(path); i++ {
		if i+1 == len(path) || slices.Contains(relays, path[i]) {
			segs = append(segs, path[start:i+1])
			start = i
		}
	}
	return segs
}

// wireSpec builds the spec's nodes and links, as Spec.Build does, with no
// routes.
func wireSpec(t *testing.T, s *topospec.Spec) *netem.Network {
	t.Helper()
	net := netem.New(sim.NewScheduler())
	for _, n := range s.Nodes {
		if _, err := net.AddNode(n.Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range s.Links {
		if _, err := net.AddLink(l.From, l.To, netem.LinkConfig{RateBps: l.RateBps, Delay: l.Delay}); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// compareFlowRoutes checks one flow against the reference: the path of the
// whole flow and of each control segment, node for node, and the control
// delay from every node of each segment back to the segment's first node,
// bit for bit. A delay the reference lacks made the old control plane drop
// the message; the network must now deliver it (at zero delay at the
// segment's own first node). It returns how many such delays it saw.
func compareFlowRoutes(t *testing.T, label string, net *netem.Network, ref *refRoutes, path, relays []string) (fixed int) {
	t.Helper()
	segs := controlSegmentsOf(path, relays)
	if len(segs) > 1 {
		segs = append(segs, path)
	}
	for _, seg := range segs {
		from, to := seg[0], seg[len(seg)-1]
		want, ok := ref.path(from, to)
		if !ok {
			t.Fatalf("%s: reference has no path %s -> %s", label, from, to)
		}
		got, err := net.Path(from, to)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s: path %s -> %s = %v (%v), reference %v", label, from, to, got, err, want)
		}
		for _, node := range seg {
			got, err := net.PathDelay(node, from)
			if err != nil {
				t.Fatalf("%s: control delay %s -> %s: %v", label, node, from, err)
			}
			want, ok := ref.pathDelay[[2]string{node, from}]
			switch {
			case ok && got != want:
				t.Fatalf("%s: control delay %s -> %s = %v, reference %v", label, node, from, got, want)
			case !ok && node == from && got != 0:
				t.Fatalf("%s: control delay %s -> itself = %v, want 0", label, node, got)
			case !ok:
				fixed++
			}
		}
	}
	return fixed
}

// compareSpecRoutes builds s and checks every flow against the reference.
func compareSpecRoutes(t *testing.T, label string, s *topospec.Spec) (fixed int) {
	t.Helper()
	cloud, err := s.Build(sim.NewScheduler())
	if err != nil {
		t.Fatalf("%s: build: %v", label, err)
	}
	ref := specRefRoutes(s, wireSpec(t, s))
	for _, f := range sortedFlows(s) {
		path := f.Via
		if len(path) == 0 {
			path, _ = ref.path(f.Ingress, f.Egress)
		}
		fixed += compareFlowRoutes(t, fmt.Sprintf("%s flow %d", label, f.Index), cloud.Net, ref, path, f.Relays)
	}
	return fixed
}

// compareCloudRoutes checks a topology-package cloud, routed by the old
// all-pairs pass alone.
func compareCloudRoutes(t *testing.T, label string, c *topology.Cloud) {
	t.Helper()
	var nodes []string
	for _, l := range c.Net.Links() {
		if !slices.Contains(nodes, l.From().Name()) {
			nodes = append(nodes, l.From().Name())
		}
	}
	ref := newRefRoutes(c.Net, nodes)
	ref.computeRoutes()
	for _, pl := range c.Placements {
		path, ok := ref.path(pl.Ingress, pl.Egress)
		if !ok {
			t.Fatalf("%s: reference has no path for flow %d", label, pl.Index)
		}
		if fixed := compareFlowRoutes(t, fmt.Sprintf("%s flow %d", label, pl.Index), c.Net, ref, path, nil); fixed != 0 {
			t.Fatalf("%s flow %d: %d control delays the all-pairs reference lacks", label, pl.Index, fixed)
		}
	}
}

// TestRoutesMatchReferenceOnBuilders compares every flow's path and every
// on-path control delay with the old all-pairs routing, over the paper
// topology, the dumbbell, and the fat-tree, N-cloud and mesh generators.
func TestRoutesMatchReferenceOnBuilders(t *testing.T) {
	for _, n := range []int{1, 10, 20} {
		c, err := topology.Paper(sim.NewScheduler(), topology.Options{NumFlows: n})
		if err != nil {
			t.Fatal(err)
		}
		compareCloudRoutes(t, fmt.Sprintf("paper:%d", n), c)
		d, err := topology.Dumbbell(sim.NewScheduler(), n, nil, topology.Options{})
		if err != nil {
			t.Fatal(err)
		}
		compareCloudRoutes(t, fmt.Sprintf("dumbbell:%d", n), d)
	}
	for _, topo := range []string{
		"fattree:k=4,flows=32", "fattree:k=8,flows=64",
		"nclouds:n=3,through=2,local=2", "nclouds:n=4,cores=2,through=3,local=1,remark=1",
		"mesh:nodes=8", "mesh:nodes=16,degree=2,flows=40",
	} {
		cfg, err := topogen.Parse(topo)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			spec, err := cfg.Generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			fixed := compareSpecRoutes(t, fmt.Sprintf("%s seed %d", topo, seed), spec)
			// Pinned builders left only each segment's own first node
			// without a self delay; routed ones left nothing.
			if strings.HasPrefix(topo, "mesh") && fixed != 0 {
				t.Errorf("%s seed %d: %d control delays the reference lacks", topo, seed, fixed)
			}
		}
	}
}

// randomRoutedSpec draws a small routed cloud: node names in random order
// (so name order, the last tie-break, differs from creation order), link
// delays of 0, 1 or 2 ms (so equal-delay ties are common, and a zero-delay
// hop makes the hop-count tie-break matter), and links that are duplex,
// duplex with different delays each way, or one-way.
func randomRoutedSpec(rng *rand.Rand) *topospec.Spec {
	n := 4 + rng.Intn(9)
	s := &topospec.Spec{}
	letters := rng.Perm(26)
	for i := 0; i < n; i++ {
		role := topospec.RoleCore
		if rng.Intn(2) == 0 {
			role = topospec.RoleEdge
		}
		s.Nodes = append(s.Nodes, topospec.NodeSpec{Name: string(rune('a'+letters[i])) + fmt.Sprint(rng.Intn(3)), Role: role})
	}
	linked := make(map[[2]int]bool)
	link := func(a, b int) {
		if a == b || linked[[2]int{a, b}] {
			return
		}
		linked[[2]int{a, b}] = true
		s.Links = append(s.Links, topospec.LinkSpec{
			From: s.Nodes[a].Name, To: s.Nodes[b].Name, RateBps: 4e6,
			Delay: time.Duration(rng.Intn(3)) * time.Millisecond,
		})
	}
	for i := 1; i < n; i++ {
		for _, j := range []int{rng.Intn(i), rng.Intn(n)} {
			switch rng.Intn(4) {
			case 0: // one-way, either direction
				if rng.Intn(2) == 0 {
					link(i, j)
				} else {
					link(j, i)
				}
			default: // duplex, delays drawn independently
				link(i, j)
				link(j, i)
			}
		}
	}
	var edges []string
	for _, nd := range s.Nodes {
		if nd.Role == topospec.RoleEdge {
			edges = append(edges, nd.Name)
		}
	}
	for f := 1; len(edges) >= 2 && f <= 1+rng.Intn(6); f++ {
		p := rng.Perm(len(edges))
		s.Flows = append(s.Flows, topospec.FlowSpec{Index: f, Ingress: edges[p[0]], Egress: edges[p[1]], Weight: 1})
	}
	return s
}

// TestRoutesMatchReferenceOnRandomSpecs compares routes with the old
// all-pairs routing over random routed clouds. A spec the old build
// accepted but whose control plane could not reach a flow's ingress from
// one of its nodes must now be refused, naming that flow and node.
func TestRoutesMatchReferenceOnRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var built, refused int
	for iter := 0; iter < 400; iter++ {
		s := randomRoutedSpec(rng)
		if len(s.Flows) == 0 {
			continue
		}
		label := fmt.Sprintf("spec %d", iter)
		ref := specRefRoutes(s, wireSpec(t, s))
		// The first flow the old routing could not serve, and why.
		want := ""
	flows:
		for _, f := range sortedFlows(s) {
			path, ok := ref.path(f.Ingress, f.Egress)
			if !ok {
				want = fmt.Sprintf("flow %d: netem: no path %s -> %s", f.Index, f.Ingress, f.Egress)
				break
			}
			for _, node := range path[1:] {
				if _, ok := ref.pathDelay[[2]string{node, f.Ingress}]; !ok {
					want = fmt.Sprintf("flow %d: node %s has no path back to %s", f.Index, node, f.Ingress)
					break flows
				}
			}
		}
		if want != "" {
			_, err := s.Build(sim.NewScheduler())
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: build error %v, want one containing %q", label, err, want)
			}
			refused++
			continue
		}
		if fixed := compareSpecRoutes(t, label, s); fixed != 0 {
			t.Fatalf("%s: %d control delays the all-pairs reference lacks", label, fixed)
		}
		built++
	}
	t.Logf("%d specs built and compared, %d refused", built, refused)
	if built < 100 || refused < 20 {
		t.Fatalf("built %d and refused %d random specs; the generator should exercise both", built, refused)
	}
}

// randomWalk returns a random simple path from -> to over the spec's
// links, or nil.
func randomWalk(rng *rand.Rand, s *topospec.Spec, from, to string) []string {
	out := make(map[string][]string)
	for _, l := range s.Links {
		out[l.From] = append(out[l.From], l.To)
	}
	path := []string{from}
	var walk func(cur string) bool
	walk = func(cur string) bool {
		if cur == to {
			return true
		}
		next := out[cur]
		for _, i := range rng.Perm(len(next)) {
			if slices.Contains(path, next[i]) {
				continue
			}
			path = append(path, next[i])
			if walk(next[i]) {
				return true
			}
			path = path[:len(path)-1]
		}
		return false
	}
	if !walk(from) {
		return nil
	}
	return path
}

// TestForwardingMatchesReferenceWithPins pins random simple paths, often
// longer than the shortest, for some flows of random routed clouds and
// compares the path a packet takes between every pair of nodes with the old
// per-node tables, where pinned next hops override routed ones node by
// node: a packet injected on a pinned path, or reaching one on its
// shortest path, follows the pin.
func TestForwardingMatchesReferenceWithPins(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var compared int
	for iter := 0; iter < 300; iter++ {
		s := randomRoutedSpec(rng)
		if len(s.Flows) < 2 {
			continue
		}
		used := make(map[string]bool)
		for i := range s.Flows[1:] { // flow 1 stays routed
			f := &s.Flows[1+i]
			if used[f.Ingress] || used[f.Egress] || rng.Intn(2) == 0 {
				continue
			}
			if f.Via = randomWalk(rng, s, f.Ingress, f.Egress); f.Via != nil {
				used[f.Ingress], used[f.Egress] = true, true
			}
		}
		cloud, err := s.Build(sim.NewScheduler())
		if err != nil {
			continue // refusals are TestRoutesMatchReferenceOnRandomSpecs' subject
		}
		ref := specRefRoutes(s, wireSpec(t, s))
		for _, a := range s.Nodes {
			for _, b := range s.Nodes {
				want, ok := ref.path(a.Name, b.Name)
				got, err := cloud.Net.Path(a.Name, b.Name)
				if ok != (err == nil) || !slices.Equal(got, want) {
					t.Fatalf("spec %d: path %s -> %s = %v (%v), reference %v (%v)", iter, a.Name, b.Name, got, err, want, ok)
				}
				compared++
			}
		}
	}
	if compared < 5000 {
		t.Fatalf("compared %d node pairs; the generator should produce more", compared)
	}
}
