// Package topospec parses a small declarative text format describing
// custom network clouds — nodes, links, and flow slots — and builds them
// into simulated topologies. It lets coresim (and library users) run the
// QoS schemes on arbitrary clouds without writing Go:
//
//	# a Y-shaped cloud: two ingress branches merging into one trunk
//	node A core
//	node B core
//	node C core
//	duplex A C 4Mbps 10ms
//	duplex B C 4Mbps 10ms
//	node in1 edge
//	node out1 edge
//	duplex in1 A 10Mbps 1ms
//	duplex C out1 10Mbps 1ms
//	flow 1 in1 out1 weight=2 min=50
//
// Lines are independent; '#' starts a comment. Node roles are `core`
// (receives core-router behaviour) or `edge`. `link` creates one
// unidirectional link, `duplex` a pair; a directed link is declared once.
// Bandwidths accept bps/kbps/Mbps/Gbps suffixes; delays use Go duration
// syntax. Flow options: `weight=` (default 1) and `min=` (minimum rate
// contract in packets/second).
package topospec

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// NodeRole classifies spec nodes. It is a byte so that Resolved.Roles
// costs two bytes per link.
type NodeRole uint8

// Node roles.
const (
	// RoleEdge nodes originate/terminate flows.
	RoleEdge NodeRole = iota + 1
	// RoleCore nodes receive core-router behaviour; links between two
	// core nodes are the oracle's capacity constraints.
	RoleCore
)

// String implements fmt.Stringer.
func (r NodeRole) String() string {
	switch r {
	case RoleEdge:
		return "edge"
	case RoleCore:
		return "core"
	default:
		return "unknown"
	}
}

// NodeSpec declares one node.
type NodeSpec struct {
	Name string
	Role NodeRole
}

// LinkSpec declares one unidirectional link.
type LinkSpec struct {
	From, To string
	RateBps  float64
	Delay    time.Duration
	// QueueCap overrides the 40-packet default buffer (0 = default).
	QueueCap int
}

// FlowSpec declares one flow slot.
type FlowSpec struct {
	// Index is the caller-visible flow number (must be unique and >= 1).
	Index int
	// Ingress / Egress name edge nodes.
	Ingress, Egress string
	// Weight is the rate weight (default 1).
	Weight float64
	// MinRate is the minimum rate contract in packets/second (0 = best
	// effort).
	MinRate float64
	// Via, when non-empty, pins the flow's complete hop-by-hop path:
	// Via[0] must be the ingress, the last element the egress, and every
	// consecutive pair directly linked. Generators use it to realize
	// deterministic ECMP-style path selection (the chosen core switch is
	// baked into the spec, not re-derived at build time). Build installs
	// the chain as a route override toward the flow's egress, so no two
	// via-pinned flows may share an ingress or egress node.
	Via []string
	// Relays names edge nodes on the via path where the flow is
	// re-shaped into a fresh control segment (N-cloud concatenation:
	// each cloud's boundary re-marks the flow). Requires Via; packet
	// backend + Corelite only.
	Relays []string
}

// Spec is a parsed topology description.
type Spec struct {
	Nodes []NodeSpec
	Links []LinkSpec
	Flows []FlowSpec
}

// ParseError reports a syntax or semantic error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("topospec: line %d: %s", e.Line, e.Msg)
}

func errAt(line int, format string, args ...any) *ParseError {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse reads a spec from r.
func Parse(r io.Reader) (*Spec, error) {
	spec := &Spec{}
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "node":
			if err := spec.parseNode(lineNo, fields[1:]); err != nil {
				return nil, err
			}
		case "link":
			if err := spec.parseLink(lineNo, fields[1:], false); err != nil {
				return nil, err
			}
		case "duplex":
			if err := spec.parseLink(lineNo, fields[1:], true); err != nil {
				return nil, err
			}
		case "flow":
			if err := spec.parseFlow(lineNo, fields[1:]); err != nil {
				return nil, err
			}
		default:
			return nil, errAt(lineNo, "unknown directive %q", fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("topospec: read: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ParseFile reads a spec from a file.
func ParseFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("topospec: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

func (s *Spec) parseNode(line int, args []string) error {
	if len(args) != 2 {
		return errAt(line, "node wants: node <name> <edge|core>")
	}
	var role NodeRole
	switch args[1] {
	case "edge":
		role = RoleEdge
	case "core":
		role = RoleCore
	default:
		return errAt(line, "unknown node role %q (want edge or core)", args[1])
	}
	s.Nodes = append(s.Nodes, NodeSpec{Name: args[0], Role: role})
	return nil
}

func (s *Spec) parseLink(line int, args []string, duplex bool) error {
	if len(args) < 4 {
		return errAt(line, "link wants: link <from> <to> <rate> <delay> [queue=N]")
	}
	rate, err := ParseBandwidth(args[2])
	if err != nil {
		return errAt(line, "bad rate %q: %v", args[2], err)
	}
	delay, err := time.ParseDuration(args[3])
	if err != nil {
		return errAt(line, "bad delay %q: %v", args[3], err)
	}
	if delay < 0 {
		return errAt(line, "negative delay %v", delay)
	}
	l := LinkSpec{From: args[0], To: args[1], RateBps: rate, Delay: delay}
	for _, opt := range args[4:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok || k != "queue" {
			return errAt(line, "unknown link option %q", opt)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return errAt(line, "bad queue size %q", v)
		}
		l.QueueCap = n
	}
	s.Links = append(s.Links, l)
	if duplex {
		back := l
		back.From, back.To = l.To, l.From
		s.Links = append(s.Links, back)
	}
	return nil
}

func (s *Spec) parseFlow(line int, args []string) error {
	if len(args) < 3 {
		return errAt(line, "flow wants: flow <index> <ingress> <egress> [weight=W] [min=M]")
	}
	idx, err := strconv.Atoi(args[0])
	if err != nil || idx < 1 {
		return errAt(line, "bad flow index %q", args[0])
	}
	f := FlowSpec{Index: idx, Ingress: args[1], Egress: args[2], Weight: 1}
	for _, opt := range args[3:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return errAt(line, "bad flow option %q", opt)
		}
		switch k {
		case "via":
			f.Via = strings.Split(v, ":")
			continue
		case "relay":
			f.Relays = strings.Split(v, ":")
			continue
		}
		val, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return errAt(line, "bad value in %q", opt)
		}
		switch k {
		case "weight":
			if val <= 0 {
				return errAt(line, "weight must be positive")
			}
			f.Weight = val
		case "min":
			if val < 0 {
				return errAt(line, "min must be non-negative")
			}
			f.MinRate = val
		default:
			return errAt(line, "unknown flow option %q", k)
		}
	}
	s.Flows = append(s.Flows, f)
	return nil
}

// ParseBandwidth converts "4Mbps", "500kbps", "1.5Gbps" or "250000bps"
// into bits per second.
func ParseBandwidth(s string) (float64, error) {
	unit := 1.0
	num := s
	for _, suffix := range []struct {
		name string
		mult float64
	}{
		{"Gbps", 1e9}, {"Mbps", 1e6}, {"kbps", 1e3}, {"bps", 1},
	} {
		if strings.HasSuffix(s, suffix.name) {
			unit = suffix.mult
			num = strings.TrimSuffix(s, suffix.name)
			break
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("cannot parse bandwidth %q", s)
	}
	if v <= 0 {
		return 0, fmt.Errorf("bandwidth must be positive, got %q", s)
	}
	return v * unit, nil
}

// Resolved is a validated spec in dense form: the ids Resolve builds while
// it checks the spec, kept so a builder need not derive them again from
// names. Link indices index Spec.Links; flow positions follow Spec.Flows.
type Resolved struct {
	// Start and Hops hold each flow's via path as link indices in CSR
	// form: flow fi crosses Hops[Start[fi]:Start[fi+1]] in path order, and
	// a flow without a via path has an empty range. len(Start) is
	// len(Spec.Flows)+1.
	Start []int32
	Hops  []int32
	// Roles holds each link's endpoint roles, from first.
	Roles [][2]NodeRole
}

// Path returns flow fi's via path as link indices.
func (r *Resolved) Path(fi int) []int32 { return r.Hops[r.Start[fi]:r.Start[fi+1]] }

// Validate checks the spec's internal consistency; it is Resolve without
// the result.
func (s *Spec) Validate() error {
	_, err := s.Resolve()
	return err
}

// Resolve checks the spec's internal consistency and returns its dense
// form. Node names are interned to dense ids once, so the per-link and
// per-hop checks index slices and a packed id-pair table instead of hashing
// strings per flow — at 100k pinned flows that is most of a generated
// scenario's set-up. The builder that uses a spec resolves it, once.
func (s *Spec) Resolve() (*Resolved, error) {
	ids := make(map[string]int32, len(s.Nodes))
	roles := make([]NodeRole, len(s.Nodes))
	for i, n := range s.Nodes {
		if _, dup := ids[n.Name]; dup {
			return nil, fmt.Errorf("topospec: duplicate node %q", n.Name)
		}
		ids[n.Name] = int32(i)
		roles[i] = n.Role
	}
	// lookup resolves a name to its id and role; an undeclared name (and a
	// node declared without a role) reads as role 0.
	lookup := func(name string) (int32, NodeRole) {
		if id, ok := ids[name]; ok {
			return id, roles[id]
		}
		return -1, 0
	}
	pair := func(from, to int32) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }
	r := &Resolved{Roles: make([][2]NodeRole, len(s.Links))}
	// linkAt maps a node-id pair to its link's index in s.Links.
	linkAt := make(map[uint64]int32, len(s.Links))
	for li, l := range s.Links {
		from, fromRole := lookup(l.From)
		if fromRole == 0 {
			return nil, fmt.Errorf("topospec: link references unknown node %q", l.From)
		}
		to, toRole := lookup(l.To)
		if toRole == 0 {
			return nil, fmt.Errorf("topospec: link references unknown node %q", l.To)
		}
		if l.RateBps <= 0 {
			return nil, fmt.Errorf("topospec: link %s->%s needs a positive rate", l.From, l.To)
		}
		if l.Delay < 0 {
			return nil, fmt.Errorf("topospec: link %s->%s has negative delay", l.From, l.To)
		}
		if _, dup := linkAt[pair(from, to)]; dup {
			return nil, fmt.Errorf("topospec: duplicate link %s->%s", l.From, l.To)
		}
		linkAt[pair(from, to)] = int32(li)
		r.Roles[li] = [2]NodeRole{fromRole, toRole}
	}
	seen := make(map[int]bool, len(s.Flows))
	if len(s.Flows) == 0 {
		return nil, fmt.Errorf("topospec: no flows declared")
	}
	hops := 0
	for _, f := range s.Flows {
		if len(f.Via) > 1 {
			hops += len(f.Via) - 1
		}
	}
	r.Start = make([]int32, 1, len(s.Flows)+1)
	r.Hops = make([]int32, 0, hops)
	// Via-pinned flows install route overrides keyed by their endpoint
	// nodes, so endpoint hosts must be uniquely wired across them. viaIn,
	// viaOut and onPath hold, per node id, the 1-based position in s.Flows of
	// the flow that claimed the node, so onPath needs no clearing.
	viaIn := make([]int32, len(s.Nodes))
	viaOut := make([]int32, len(s.Nodes))
	onPath := make([]int32, len(s.Nodes))
	for fi, f := range s.Flows {
		stamp := int32(fi + 1)
		if seen[f.Index] {
			return nil, fmt.Errorf("topospec: duplicate flow index %d", f.Index)
		}
		seen[f.Index] = true
		in, inRole := lookup(f.Ingress)
		if inRole != RoleEdge {
			return nil, fmt.Errorf("topospec: flow %d ingress %q is not an edge node", f.Index, f.Ingress)
		}
		out, outRole := lookup(f.Egress)
		if outRole != RoleEdge {
			return nil, fmt.Errorf("topospec: flow %d egress %q is not an edge node", f.Index, f.Egress)
		}
		if len(f.Relays) > 0 && len(f.Via) == 0 {
			return nil, fmt.Errorf("topospec: flow %d declares relays without a via path", f.Index)
		}
		if len(f.Via) == 0 {
			r.Start = append(r.Start, int32(len(r.Hops)))
			continue
		}
		if f.Via[0] != f.Ingress || f.Via[len(f.Via)-1] != f.Egress {
			return nil, fmt.Errorf("topospec: flow %d via path must run ingress -> egress (%s -> %s)", f.Index, f.Ingress, f.Egress)
		}
		if len(f.Via) < 2 {
			return nil, fmt.Errorf("topospec: flow %d via path needs at least two nodes", f.Index)
		}
		// A hop is checked when its far end is resolved (an undeclared far
		// end, id -1, pairs with no link), which keeps the checks in path
		// order: node i, hop i->i+1, node i+1.
		prev := int32(-1)
		for i, name := range f.Via {
			id, role := lookup(name)
			if i > 0 {
				li, ok := linkAt[pair(prev, id)]
				if !ok {
					return nil, fmt.Errorf("topospec: flow %d via hop %s->%s has no link (disconnected path)", f.Index, f.Via[i-1], name)
				}
				r.Hops = append(r.Hops, li)
			}
			if role == 0 {
				return nil, fmt.Errorf("topospec: flow %d via references unknown node %q", f.Index, name)
			}
			if onPath[id] == stamp {
				return nil, fmt.Errorf("topospec: flow %d via path visits %q twice", f.Index, name)
			}
			onPath[id] = stamp
			prev = id
		}
		r.Start = append(r.Start, int32(len(r.Hops)))
		if dup := viaIn[in]; dup != 0 {
			return nil, fmt.Errorf("topospec: flows %d and %d share via ingress %q (hosts must be uniquely wired)", s.Flows[dup-1].Index, f.Index, f.Ingress)
		}
		if dup := viaOut[out]; dup != 0 {
			return nil, fmt.Errorf("topospec: flows %d and %d share via egress %q (hosts must be uniquely wired)", s.Flows[dup-1].Index, f.Index, f.Egress)
		}
		viaIn[in], viaOut[out] = stamp, stamp
		for _, rel := range f.Relays {
			id, role := lookup(rel)
			if id < 0 || onPath[id] != stamp {
				return nil, fmt.Errorf("topospec: flow %d relay %q is not on the via path", f.Index, rel)
			}
			if rel == f.Ingress || rel == f.Egress {
				return nil, fmt.Errorf("topospec: flow %d relay %q cannot be an endpoint", f.Index, rel)
			}
			if role != RoleEdge {
				return nil, fmt.Errorf("topospec: flow %d relay %q is not an edge node", f.Index, rel)
			}
		}
	}
	return r, nil
}

// Weights extracts the flow-index -> weight map.
func (s *Spec) Weights() map[int]float64 {
	out := make(map[int]float64, len(s.Flows))
	for _, f := range s.Flows {
		out[f.Index] = f.Weight
	}
	return out
}

// MinRates extracts the flow-index -> contract map (only non-zero
// entries).
func (s *Spec) MinRates() map[int]float64 {
	out := make(map[int]float64)
	for _, f := range s.Flows {
		if f.MinRate > 0 {
			out[f.Index] = f.MinRate
		}
	}
	return out
}

// Build constructs the spec's cloud on the given scheduler: nodes, links,
// routes, flow placements (with routed core-link incidence for the
// max-min oracle), and the list of core nodes.
func (s *Spec) Build(sched *sim.Scheduler) (*topology.Cloud, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	net := netem.New(sched)
	roles := make(map[string]NodeRole, len(s.Nodes))
	for _, n := range s.Nodes {
		if _, err := net.AddNode(n.Name); err != nil {
			return nil, err
		}
		roles[n.Name] = n.Role
	}
	coreLinks := make(map[string]*netem.Link)
	for _, l := range s.Links {
		var q netem.Discipline
		if l.QueueCap > 0 {
			q = netem.NewDropTail(l.QueueCap)
		}
		link, err := net.AddLink(l.From, l.To, netem.LinkConfig{
			RateBps: l.RateBps, Delay: l.Delay, Queue: q,
		})
		if err != nil {
			return nil, err
		}
		if roles[l.From] == RoleCore && roles[l.To] == RoleCore {
			coreLinks[link.Name()] = link
		}
	}
	flows := make([]FlowSpec, len(s.Flows))
	copy(flows, s.Flows)
	sort.Slice(flows, func(i, j int) bool { return flows[i].Index < flows[j].Index })

	placements := make([]topology.Placement, 0, len(flows))
	for _, f := range flows {
		var path []string
		var crossed []string
		if len(f.Via) > 0 {
			path = f.Via
			if err := net.InstallRoute(path); err != nil {
				return nil, fmt.Errorf("topospec: flow %d: %w", f.Index, err)
			}
			// A pinned path is a deliberate ECMP choice: every link on it
			// is a capacity constraint the oracle must know about (the
			// per-flow host access links are private, so including them
			// only caps the flow at its own access rate — exact).
			for i := 0; i+1 < len(path); i++ {
				name := path[i] + "->" + path[i+1]
				crossed = append(crossed, name)
				if _, tracked := coreLinks[name]; !tracked {
					coreLinks[name] = net.Node(path[i]).LinkTo(path[i+1])
				}
			}
		} else {
			var err error
			path, err = net.Path(f.Ingress, f.Egress)
			if err != nil {
				return nil, fmt.Errorf("topospec: flow %d: %w", f.Index, err)
			}
			for i := 0; i+1 < len(path); i++ {
				name := path[i] + "->" + path[i+1]
				if _, isCore := coreLinks[name]; isCore {
					crossed = append(crossed, name)
				}
			}
			if len(crossed) == 0 {
				// The oracle needs at least one constraint per flow; use the
				// flow's tightest link along the path.
				tight := tightestLink(net, path)
				crossed = []string{tight.Name()}
				if _, tracked := coreLinks[crossed[0]]; !tracked {
					coreLinks[crossed[0]] = tight
				}
			}
		}
		if err := controlSegments(net, f, path); err != nil {
			return nil, err
		}
		placements = append(placements, topology.Placement{
			Index:     f.Index,
			Weight:    f.Weight,
			Ingress:   f.Ingress,
			Egress:    f.Egress,
			CoreLinks: crossed,
			Relays:    f.Relays,
		})
	}

	var coreNodes []string
	for _, n := range s.Nodes {
		if n.Role == RoleCore {
			coreNodes = append(coreNodes, n.Name)
		}
	}
	return &topology.Cloud{
		Net:        net,
		Placements: placements,
		CoreLinks:  coreLinks,
		CoreNodes:  coreNodes,
	}, nil
}

// Format renders the spec back into the text format Parse reads, one
// directive per line in deterministic order. Generators use it to persist
// specs (and to feed the fuzz corpus); Parse(Format(s)) round-trips every
// field.
func (s *Spec) Format() string {
	var b strings.Builder
	for _, n := range s.Nodes {
		fmt.Fprintf(&b, "node %s %s\n", n.Name, n.Role)
	}
	for _, l := range s.Links {
		fmt.Fprintf(&b, "link %s %s %sbps %s", l.From, l.To,
			strconv.FormatFloat(l.RateBps, 'g', -1, 64), l.Delay)
		if l.QueueCap > 0 {
			fmt.Fprintf(&b, " queue=%d", l.QueueCap)
		}
		b.WriteByte('\n')
	}
	for _, f := range s.Flows {
		fmt.Fprintf(&b, "flow %d %s %s", f.Index, f.Ingress, f.Egress)
		if f.Weight != 1 {
			fmt.Fprintf(&b, " weight=%s", strconv.FormatFloat(f.Weight, 'g', -1, 64))
		}
		if f.MinRate > 0 {
			fmt.Fprintf(&b, " min=%s", strconv.FormatFloat(f.MinRate, 'g', -1, 64))
		}
		if len(f.Via) > 0 {
			fmt.Fprintf(&b, " via=%s", strings.Join(f.Via, ":"))
		}
		if len(f.Relays) > 0 {
			fmt.Fprintf(&b, " relay=%s", strings.Join(f.Relays, ":"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// tightestLink returns the lowest-rate link along path.
func tightestLink(net *netem.Network, path []string) *netem.Link {
	var best *netem.Link
	for i := 0; i+1 < len(path); i++ {
		if l := net.Node(path[i]).LinkTo(path[i+1]); best == nil || l.RateBps() < best.RateBps() {
			best = l
		}
	}
	return best
}

// controlSegments pins each re-marking segment of a relayed flow and checks
// that every node of every segment reaches the segment's first node, the
// edge its marker feedback and loss notifications go to; a flow without
// relays is one segment. Re-marked flows address one segment at a time, so
// intermediate gateways are packet destinations in their own right.
func controlSegments(net *netem.Network, f FlowSpec, path []string) error {
	start := 0
	for i := 1; i < len(path); i++ {
		if i+1 < len(path) && !slices.Contains(f.Relays, path[i]) {
			continue
		}
		if len(f.Relays) > 0 {
			if err := net.InstallRoute(path[start : i+1]); err != nil {
				return fmt.Errorf("topospec: flow %d relay %s: %w", f.Index, path[i], err)
			}
		}
		for _, node := range path[start+1 : i+1] {
			if _, err := net.PathDelay(node, path[start]); err != nil {
				return fmt.Errorf("topospec: flow %d: node %s has no path back to %s for control messages", f.Index, node, path[start])
			}
		}
		start = i
	}
	return nil
}
