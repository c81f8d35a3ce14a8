// Package topogen generates topospec specs parametrically: k-ary
// fat-trees with auto-wired hosts and deterministic ECMP-style path
// selection, N-cloud Corelite concatenations generalizing the two-cloud
// experiment, and random meshes with seeded flow matrices. Generators are
// pure functions of (Config, seed) — the same pair always yields the same
// spec, byte for byte (see Spec.Format), which is what lets generated
// scenarios run under the deterministic replay/parallel-pool machinery.
//
// The CLI grammar mirrors the struct:
//
//	fattree:k=8,flows=48,host=16Mbps,fabric=4Mbps
//	nclouds:n=3,cores=3,through=2,local=2,remark=1
//	mesh:nodes=8,degree=2,flows=8
package topogen

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/topospec"
)

// Kind selects a generator family.
type Kind int

// Generator kinds.
const (
	// KindFatTree is a k-ary fat-tree datacenter fabric.
	KindFatTree Kind = iota + 1
	// KindNClouds chains n Corelite clouds through trunk gateways.
	KindNClouds
	// KindMesh is a random ring-plus-chords core with a seeded flow matrix.
	KindMesh
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindFatTree:
		return "fattree"
	case KindNClouds:
		return "nclouds"
	case KindMesh:
		return "mesh"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config parameterizes one generated topology. Zero-valued fields take the
// documented defaults in Generate.
type Config struct {
	Kind Kind

	// Flows is the number of generated flow slots (indices 1..Flows),
	// each with its own ingress/egress host pair.
	Flows int

	// --- fat-tree ---

	// K is the fat-tree arity (even, >= 2): (K/2)^2 core switches, K pods
	// of K/2 aggregation + K/2 edge switches.
	K int
	// HostRateBps is the host access-link rate; it defaults to 4x the
	// fabric rate so congestion forms in the fabric, not at the hosts.
	HostRateBps float64
	// FabricRateBps is the switch-to-switch link rate (default: the
	// paper's 4 Mbps, keeping packet-level runs affordable).
	FabricRateBps float64
	// HostDelay / FabricDelay are per-hop propagation delays (defaults
	// 500us / 1ms — datacenter scale).
	HostDelay   time.Duration
	FabricDelay time.Duration
	// QueueCap overrides the default 40-packet buffers (0 = default).
	QueueCap int
	// ECMP optionally pins a flow's path index (flow index -> choice),
	// overriding the seeded pick. Out-of-range indices are rejected:
	// inter-pod flows have (K/2)^2 paths (one per core switch), intra-pod
	// flows K/2 (one per aggregation switch).
	ECMP map[int]int

	// --- nclouds ---

	// Clouds is the number of concatenated clouds (n >= 2).
	Clouds int
	// CoresPerCloud is the length of each cloud's core chain.
	CoresPerCloud int
	// Through is the number of flows crossing every cloud; Local the
	// number of single-cloud flows per cloud. Flows is ignored for this
	// kind (the total is Through + Clouds*Local).
	Through, Local int
	// TrunkRateBps is the inter-cloud gateway link rate (default 2x the
	// fabric rate so bottlenecks stay intra-cloud).
	TrunkRateBps float64
	// Remark enables per-cloud edge re-marking: through flows carry relay
	// points at each gateway, so every cloud runs its own control segment
	// (packet backend + Corelite only).
	Remark bool

	// --- mesh ---

	// Nodes is the number of core nodes; Degree the number of extra
	// random chords per node beyond the connectivity ring.
	Nodes  int
	Degree int
	// MaxWeight bounds the seeded integer flow weights (uniform in
	// 1..MaxWeight, default 4).
	MaxWeight int
}

// IsSpec reports whether s looks like a generator spec ("kind" or
// "kind:options") rather than, say, a topology file path — CLIs use it to
// overload one -topo flag for both.
func IsSpec(s string) bool {
	kind, _, _ := strings.Cut(s, ":")
	switch kind {
	case "fattree", "nclouds", "mesh":
		return true
	}
	return false
}

// Parse reads the CLI grammar "kind:key=val,key=val".
func Parse(s string) (Config, error) {
	var cfg Config
	kind, rest, _ := strings.Cut(s, ":")
	switch kind {
	case "fattree":
		cfg.Kind = KindFatTree
	case "nclouds":
		cfg.Kind = KindNClouds
	case "mesh":
		cfg.Kind = KindMesh
	default:
		return cfg, fmt.Errorf("topogen: unknown topology kind %q (want fattree, nclouds or mesh)", kind)
	}
	if rest == "" {
		return cfg, nil
	}
	for _, opt := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return cfg, fmt.Errorf("topogen: bad option %q (want key=value)", opt)
		}
		var err error
		switch k {
		case "k":
			cfg.K, err = strconv.Atoi(v)
		case "flows":
			cfg.Flows, err = strconv.Atoi(v)
		case "host":
			cfg.HostRateBps, err = topospec.ParseBandwidth(v)
		case "fabric", "rate":
			cfg.FabricRateBps, err = topospec.ParseBandwidth(v)
		case "trunk":
			cfg.TrunkRateBps, err = topospec.ParseBandwidth(v)
		case "hostdelay":
			cfg.HostDelay, err = time.ParseDuration(v)
		case "delay", "fabricdelay":
			cfg.FabricDelay, err = time.ParseDuration(v)
		case "queue":
			cfg.QueueCap, err = strconv.Atoi(v)
		case "n", "clouds":
			cfg.Clouds, err = strconv.Atoi(v)
		case "cores":
			cfg.CoresPerCloud, err = strconv.Atoi(v)
		case "through":
			cfg.Through, err = strconv.Atoi(v)
		case "local":
			cfg.Local, err = strconv.Atoi(v)
		case "remark":
			cfg.Remark = v == "1" || v == "true"
		case "nodes":
			cfg.Nodes, err = strconv.Atoi(v)
		case "degree":
			cfg.Degree, err = strconv.Atoi(v)
		case "maxweight":
			cfg.MaxWeight, err = strconv.Atoi(v)
		default:
			return cfg, fmt.Errorf("topogen: unknown option %q for kind %s", k, cfg.Kind)
		}
		if err != nil {
			return cfg, fmt.Errorf("topogen: option %q: %v", opt, err)
		}
	}
	return cfg, nil
}

// Generate builds the spec for cfg. The result always passes
// topospec.Validate (TestGeneratedSpecsValidate pins it over a parameter
// grid); the builder that uses the spec checks it, so Generate does not.
// Errors report impossible parameter combinations (odd k, out-of-range
// ECMP pins, ...).
func (c Config) Generate(seed int64) (*topospec.Spec, error) {
	c, err := c.normalized()
	if err != nil {
		return nil, err
	}
	if err := c.checkSize(c.counts()); err != nil {
		return nil, err
	}
	switch c.Kind {
	case KindFatTree:
		return c.fatTree(seed)
	case KindNClouds:
		return c.nClouds(seed)
	default:
		return c.mesh(seed)
	}
}

// Size reports how many nodes, links and flows Generate would produce for
// c, without generating anything. It fails where Generate would on c's
// parameters or size limits. Counts are float64 so that products of
// hostile parameters cannot overflow.
func (c Config) Size() (nodes, links, flows float64, err error) {
	if c, err = c.normalized(); err != nil {
		return 0, 0, 0, err
	}
	nodes, links, flows = c.counts()
	return nodes, links, flows, c.checkSize(nodes, links, flows)
}

// normalized applies the kind's defaults and checks its parameters.
func (c Config) normalized() (Config, error) {
	c = c.fabricDefaults()
	switch c.Kind {
	case KindFatTree:
		if c.K < 2 || c.K%2 != 0 {
			return c, fmt.Errorf("topogen: fat-tree arity k=%d must be even and >= 2", c.K)
		}
		if c.Flows == 0 {
			c.Flows = 2 * c.K
		}
		if c.Flows < 1 {
			return c, fmt.Errorf("topogen: fat-tree needs at least one flow, got %d", c.Flows)
		}
	case KindNClouds:
		if c.Clouds == 0 {
			c.Clouds = 3
		}
		if c.Clouds < 2 {
			return c, fmt.Errorf("topogen: nclouds needs n >= 2, got %d", c.Clouds)
		}
		if c.CoresPerCloud == 0 {
			c.CoresPerCloud = 3
		}
		if c.CoresPerCloud < 1 {
			return c, fmt.Errorf("topogen: nclouds needs at least one core per cloud")
		}
		if c.Through == 0 {
			c.Through = 2
		}
		if c.Local == 0 {
			c.Local = 2
		}
		if c.TrunkRateBps == 0 {
			c.TrunkRateBps = 2 * c.FabricRateBps
		}
	case KindMesh:
		if c.Nodes == 0 {
			c.Nodes = 8
		}
		if c.Nodes < 3 {
			return c, fmt.Errorf("topogen: mesh needs >= 3 nodes, got %d", c.Nodes)
		}
		if c.Flows == 0 {
			c.Flows = c.Nodes
		}
		if c.MaxWeight == 0 {
			c.MaxWeight = 4
		}
	default:
		return c, fmt.Errorf("topogen: config has no kind set")
	}
	return c, nil
}

// counts reports the nodes, links and flows a normalized c generates.
func (c Config) counts() (nodes, links, flows float64) {
	switch c.Kind {
	case KindFatTree:
		// (k/2)² core + k·k/2 aggregation + k·k/2 edge switches joined by
		// k·(k/2)·k duplex fabric links; a host pair and two duplex host
		// links per flow.
		k, f := float64(c.K), float64(c.Flows)
		return float64(k*k/4) + float64(k*k) + float64(2*f), float64(k*k*k) + float64(4*f), f
	case KindNClouds:
		// Per cloud a chain of cores, a gateway and two duplex trunks
		// between neighbours; a host pair and two duplex host links per
		// flow.
		n, cores := float64(c.Clouds), float64(c.CoresPerCloud)
		f := float64(c.Through) + float64(n*float64(c.Local))
		return float64(n*cores) + n - 1 + float64(2*f), float64(2*n*(cores-1)) + float64(4*(n-1)) + float64(4*f), f
	default:
		// The ring plus at most Degree chords per node, duplex; a host
		// pair and two duplex host links per flow.
		n, f := float64(c.Nodes), float64(c.Flows)
		return n + float64(2*f), float64(2*n*(1+float64(c.Degree))) + float64(4*f), f
	}
}

// Size limits on a generated spec. They are checked arithmetically, before
// anything is allocated, so an absurd -topo fails with a message instead of
// exhausting memory. Each sits an order of magnitude above the largest
// scenario the repository targets (a million flows, a k=32 fat-tree):
// maxNodes is two hosts per flow at maxFlows plus five million switches,
// maxLinks four host links per flow at maxFlows plus the 33 million fabric
// links of a k=320 fat-tree.
const (
	maxFlows = 10_000_000
	maxNodes = 25_000_000
	maxLinks = 75_000_000
)

// checkSize refuses a spec whose node, link or flow count would exceed its
// limit. Counts are float64 so products of hostile parameters cannot
// overflow.
func (c Config) checkSize(nodes, links, flows float64) error {
	for _, q := range []struct {
		what     string
		n, limit float64
	}{{"flows", flows, maxFlows}, {"nodes", nodes, maxNodes}, {"links", links, maxLinks}} {
		if q.n > q.limit {
			return fmt.Errorf("topogen: %v would generate %.0f %s, over the limit of %.0f", c.Kind, q.n, q.what, q.limit)
		}
	}
	return nil
}

func (c Config) fabricDefaults() Config {
	if c.FabricRateBps == 0 {
		c.FabricRateBps = topology.LinkRateBps
	}
	if c.HostRateBps == 0 {
		c.HostRateBps = 4 * c.FabricRateBps
	}
	if c.FabricDelay == 0 {
		c.FabricDelay = time.Millisecond
	}
	if c.HostDelay == 0 {
		c.HostDelay = 500 * time.Microsecond
	}
	return c
}

// hostName returns the canonical per-flow host node names: every generated
// flow owns a unique ingress/egress host pair, which is what lets Build
// pin its ECMP path as a route override keyed by those hosts.
func hostName(flow int, ingress bool) string {
	if ingress {
		return "f" + strconv.Itoa(flow) + "i"
	}
	return "f" + strconv.Itoa(flow) + "o"
}

// ecmpPick derives the flow's deterministic path choice: a hash of
// (seed, flow index) reduced mod n. The choice depends only on the flow id
// and the scenario seed — adding or removing other flows never re-routes
// an existing one.
func ecmpPick(seed int64, flow, n int) int {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
		buf[8+i] = byte(flow >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return int(h.Sum64() % uint64(n))
}

// fatTree generates the k-ary fat-tree: (k/2)^2 core switches "cs<i>",
// per pod p the aggregation switches "p<p>a<j>" and edge switches
// "p<p>e<j>", and one host pair per flow on seeded edge switches. Core
// switch c attaches to aggregation switch c/(k/2) in every pod, so
// choosing c fully determines an inter-pod path.
func (c Config) fatTree(seed int64) (*topospec.Spec, error) {
	k := c.K
	half := k / 2
	spec := &topospec.Spec{
		Nodes: make([]topospec.NodeSpec, 0, half*half+k*k+2*c.Flows),
		Links: make([]topospec.LinkSpec, 0, 2*k*half*k+4*c.Flows),
		Flows: make([]topospec.FlowSpec, 0, c.Flows),
	}
	fabric := topospec.LinkSpec{RateBps: c.FabricRateBps, Delay: c.FabricDelay, QueueCap: c.QueueCap}
	host := topospec.LinkSpec{RateBps: c.HostRateBps, Delay: c.HostDelay, QueueCap: c.QueueCap}
	duplex := func(tmpl topospec.LinkSpec, a, b string) {
		tmpl.From, tmpl.To = a, b
		spec.Links = append(spec.Links, tmpl)
		tmpl.From, tmpl.To = b, a
		spec.Links = append(spec.Links, tmpl)
	}
	core := func(i int) string { return "cs" + strconv.Itoa(i) }
	agg := func(p, j int) string { return "p" + strconv.Itoa(p) + "a" + strconv.Itoa(j) }
	edge := func(p, j int) string { return "p" + strconv.Itoa(p) + "e" + strconv.Itoa(j) }
	for i := 0; i < half*half; i++ {
		spec.Nodes = append(spec.Nodes, topospec.NodeSpec{Name: core(i), Role: topospec.RoleCore})
	}
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			spec.Nodes = append(spec.Nodes,
				topospec.NodeSpec{Name: agg(p, j), Role: topospec.RoleCore},
				topospec.NodeSpec{Name: edge(p, j), Role: topospec.RoleCore})
		}
	}
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for e := 0; e < half; e++ {
				duplex(fabric, edge(p, e), agg(p, j))
			}
			for x := 0; x < half; x++ {
				duplex(fabric, agg(p, j), core(j*half+x))
			}
		}
	}

	// Hosts: seeded placement on edge switches; a flow's endpoints must
	// sit on distinct edge switches so every flow crosses the fabric.
	rng := sim.NewRNG(seed).Stream("topogen/fattree")
	for f := 1; f <= c.Flows; f++ {
		sp, se := rng.Intn(k), rng.Intn(half)
		dp, de := rng.Intn(k), rng.Intn(half)
		for dp == sp && de == se {
			dp, de = rng.Intn(k), rng.Intn(half)
		}
		in, out := hostName(f, true), hostName(f, false)
		spec.Nodes = append(spec.Nodes,
			topospec.NodeSpec{Name: in, Role: topospec.RoleEdge},
			topospec.NodeSpec{Name: out, Role: topospec.RoleEdge})
		duplex(host, in, edge(sp, se))
		duplex(host, edge(dp, de), out)

		// ECMP: intra-pod flows choose among the pod's k/2 aggregation
		// switches; inter-pod flows among the (k/2)^2 core switches.
		nPaths := half * half
		if sp == dp {
			nPaths = half
		}
		choice, pinned := c.ECMP[f]
		if !pinned {
			choice = ecmpPick(seed, f, nPaths)
		} else if choice < 0 || choice >= nPaths {
			return nil, fmt.Errorf("topogen: flow %d ECMP path index %d out of range [0, %d)", f, choice, nPaths)
		}
		var via []string
		if sp == dp {
			via = []string{in, edge(sp, se), agg(sp, choice), edge(dp, de), out}
		} else {
			a := choice / half
			via = []string{in, edge(sp, se), agg(sp, a), core(choice), agg(dp, a), edge(dp, de), out}
		}
		spec.Flows = append(spec.Flows, topospec.FlowSpec{
			Index: f, Ingress: in, Egress: out, Weight: 1, Via: via,
		})
	}
	return spec, nil
}

// nClouds chains n clouds of CoresPerCloud-long core chains through
// gateway nodes "g<i>". Through flows cross every cloud (optionally
// re-marked at each gateway); local flows load one cloud each, so the
// through flows' end-to-end share is the minimum of their per-cloud
// shares — the generalized two-cloud concatenation experiment.
func (c Config) nClouds(seed int64) (*topospec.Spec, error) {
	spec := &topospec.Spec{}
	fabric := topospec.LinkSpec{RateBps: c.FabricRateBps, Delay: c.FabricDelay, QueueCap: c.QueueCap}
	trunk := topospec.LinkSpec{RateBps: c.TrunkRateBps, Delay: c.FabricDelay, QueueCap: c.QueueCap}
	host := topospec.LinkSpec{RateBps: c.HostRateBps, Delay: c.HostDelay, QueueCap: c.QueueCap}
	duplex := func(tmpl topospec.LinkSpec, a, b string) {
		tmpl.From, tmpl.To = a, b
		spec.Links = append(spec.Links, tmpl)
		tmpl.From, tmpl.To = b, a
		spec.Links = append(spec.Links, tmpl)
	}
	coreName := func(cloud, i int) string {
		return "x" + strconv.Itoa(cloud) + "c" + strconv.Itoa(i)
	}
	gw := func(i int) string { return "g" + strconv.Itoa(i) }
	for cl := 0; cl < c.Clouds; cl++ {
		for i := 0; i < c.CoresPerCloud; i++ {
			spec.Nodes = append(spec.Nodes, topospec.NodeSpec{Name: coreName(cl, i), Role: topospec.RoleCore})
			if i > 0 {
				duplex(fabric, coreName(cl, i-1), coreName(cl, i))
			}
		}
		if cl > 0 {
			// Gateways are edge-role: under re-marking they run a fresh
			// Corelite edge that re-shapes through traffic for the next
			// cloud's control domain.
			spec.Nodes = append(spec.Nodes, topospec.NodeSpec{Name: gw(cl - 1), Role: topospec.RoleEdge})
			duplex(trunk, coreName(cl-1, c.CoresPerCloud-1), gw(cl-1))
			duplex(trunk, gw(cl-1), coreName(cl, 0))
		}
	}

	addFlow := func(idx int, via []string, relays []string) {
		in, out := hostName(idx, true), hostName(idx, false)
		spec.Nodes = append(spec.Nodes,
			topospec.NodeSpec{Name: in, Role: topospec.RoleEdge},
			topospec.NodeSpec{Name: out, Role: topospec.RoleEdge})
		duplex(host, in, via[0])
		duplex(host, via[len(via)-1], out)
		full := append([]string{in}, via...)
		full = append(full, out)
		spec.Flows = append(spec.Flows, topospec.FlowSpec{
			Index: idx, Ingress: in, Egress: out, Weight: 1, Via: full, Relays: relays,
		})
	}

	idx := 1
	for t := 0; t < c.Through; t++ {
		var via, relays []string
		for cl := 0; cl < c.Clouds; cl++ {
			if cl > 0 {
				via = append(via, gw(cl-1))
				if c.Remark {
					relays = append(relays, gw(cl-1))
				}
			}
			for i := 0; i < c.CoresPerCloud; i++ {
				via = append(via, coreName(cl, i))
			}
		}
		addFlow(idx, via, relays)
		idx++
	}
	for cl := 0; cl < c.Clouds; cl++ {
		for l := 0; l < c.Local; l++ {
			var via []string
			for i := 0; i < c.CoresPerCloud; i++ {
				via = append(via, coreName(cl, i))
			}
			addFlow(idx, via, nil)
			idx++
		}
	}
	_ = seed // topology is fully determined by the parameters
	return spec, nil
}

// mesh generates a ring of Nodes core routers with Degree extra seeded
// chords per node, then a seeded flow matrix: each flow connects a unique
// host pair attached at two distinct random cores, with a uniform integer
// weight in 1..MaxWeight. Paths are left to shortest-path routing — the
// mesh exercises the un-pinned build path.
func (c Config) mesh(seed int64) (*topospec.Spec, error) {
	spec := &topospec.Spec{}
	fabric := topospec.LinkSpec{RateBps: c.FabricRateBps, Delay: c.FabricDelay, QueueCap: c.QueueCap}
	host := topospec.LinkSpec{RateBps: c.HostRateBps, Delay: c.HostDelay, QueueCap: c.QueueCap}
	duplex := func(tmpl topospec.LinkSpec, a, b string) {
		tmpl.From, tmpl.To = a, b
		spec.Links = append(spec.Links, tmpl)
		tmpl.From, tmpl.To = b, a
		spec.Links = append(spec.Links, tmpl)
	}
	name := func(i int) string { return "m" + strconv.Itoa(i) }
	linked := make(map[[2]int]bool)
	connect := func(a, b int) {
		if a == b || linked[[2]int{a, b}] {
			return
		}
		linked[[2]int{a, b}] = true
		linked[[2]int{b, a}] = true
		duplex(fabric, name(a), name(b))
	}
	for i := 0; i < c.Nodes; i++ {
		spec.Nodes = append(spec.Nodes, topospec.NodeSpec{Name: name(i), Role: topospec.RoleCore})
	}
	for i := 0; i < c.Nodes; i++ {
		connect(i, (i+1)%c.Nodes)
	}
	rng := sim.NewRNG(seed).Stream("topogen/mesh")
	for i := 0; i < c.Nodes; i++ {
		for d := 0; d < c.Degree; d++ {
			connect(i, rng.Intn(c.Nodes))
		}
	}
	for f := 1; f <= c.Flows; f++ {
		src := rng.Intn(c.Nodes)
		dst := rng.Intn(c.Nodes)
		for dst == src {
			dst = rng.Intn(c.Nodes)
		}
		in, out := hostName(f, true), hostName(f, false)
		spec.Nodes = append(spec.Nodes,
			topospec.NodeSpec{Name: in, Role: topospec.RoleEdge},
			topospec.NodeSpec{Name: out, Role: topospec.RoleEdge})
		duplex(host, in, name(src))
		duplex(host, name(dst), out)
		spec.Flows = append(spec.Flows, topospec.FlowSpec{
			Index: f, Ingress: in, Egress: out,
			Weight: float64(1 + rng.Intn(c.MaxWeight)),
		})
	}
	return spec, nil
}
