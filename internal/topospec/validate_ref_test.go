package topospec_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"testing"

	"repro/internal/topogen"
	"repro/internal/topospec"
)

// validateReference is Spec.Validate as it stood before node names were
// interned: a role map, a [2]string-keyed link set and a fresh on-path map
// per flow, plus the duplicate-link rule added with Resolve. The interned
// version must reject exactly the same specs with exactly the same message.
func validateReference(s *topospec.Spec) error {
	roles := make(map[string]topospec.NodeRole, len(s.Nodes))
	for _, n := range s.Nodes {
		if _, dup := roles[n.Name]; dup {
			return fmt.Errorf("topospec: duplicate node %q", n.Name)
		}
		roles[n.Name] = n.Role
	}
	haveLink := make(map[[2]string]bool, len(s.Links))
	for _, l := range s.Links {
		if roles[l.From] == 0 {
			return fmt.Errorf("topospec: link references unknown node %q", l.From)
		}
		if roles[l.To] == 0 {
			return fmt.Errorf("topospec: link references unknown node %q", l.To)
		}
		if l.RateBps <= 0 {
			return fmt.Errorf("topospec: link %s->%s needs a positive rate", l.From, l.To)
		}
		if l.Delay < 0 {
			return fmt.Errorf("topospec: link %s->%s has negative delay", l.From, l.To)
		}
		if haveLink[[2]string{l.From, l.To}] {
			return fmt.Errorf("topospec: duplicate link %s->%s", l.From, l.To)
		}
		haveLink[[2]string{l.From, l.To}] = true
	}
	seen := make(map[int]bool, len(s.Flows))
	if len(s.Flows) == 0 {
		return fmt.Errorf("topospec: no flows declared")
	}
	viaIn := make(map[string]int)
	viaOut := make(map[string]int)
	for _, f := range s.Flows {
		if seen[f.Index] {
			return fmt.Errorf("topospec: duplicate flow index %d", f.Index)
		}
		seen[f.Index] = true
		if roles[f.Ingress] != topospec.RoleEdge {
			return fmt.Errorf("topospec: flow %d ingress %q is not an edge node", f.Index, f.Ingress)
		}
		if roles[f.Egress] != topospec.RoleEdge {
			return fmt.Errorf("topospec: flow %d egress %q is not an edge node", f.Index, f.Egress)
		}
		if len(f.Relays) > 0 && len(f.Via) == 0 {
			return fmt.Errorf("topospec: flow %d declares relays without a via path", f.Index)
		}
		if len(f.Via) == 0 {
			continue
		}
		if f.Via[0] != f.Ingress || f.Via[len(f.Via)-1] != f.Egress {
			return fmt.Errorf("topospec: flow %d via path must run ingress -> egress (%s -> %s)", f.Index, f.Ingress, f.Egress)
		}
		if len(f.Via) < 2 {
			return fmt.Errorf("topospec: flow %d via path needs at least two nodes", f.Index)
		}
		onPath := make(map[string]bool, len(f.Via))
		for i, name := range f.Via {
			if roles[name] == 0 {
				return fmt.Errorf("topospec: flow %d via references unknown node %q", f.Index, name)
			}
			if onPath[name] {
				return fmt.Errorf("topospec: flow %d via path visits %q twice", f.Index, name)
			}
			onPath[name] = true
			if i+1 < len(f.Via) && !haveLink[[2]string{name, f.Via[i+1]}] {
				return fmt.Errorf("topospec: flow %d via hop %s->%s has no link (disconnected path)", f.Index, name, f.Via[i+1])
			}
		}
		if prev, dup := viaIn[f.Ingress]; dup {
			return fmt.Errorf("topospec: flows %d and %d share via ingress %q (hosts must be uniquely wired)", prev, f.Index, f.Ingress)
		}
		if prev, dup := viaOut[f.Egress]; dup {
			return fmt.Errorf("topospec: flows %d and %d share via egress %q (hosts must be uniquely wired)", prev, f.Index, f.Egress)
		}
		viaIn[f.Ingress] = f.Index
		viaOut[f.Egress] = f.Index
		for _, rel := range f.Relays {
			if !onPath[rel] {
				return fmt.Errorf("topospec: flow %d relay %q is not on the via path", f.Index, rel)
			}
			if rel == f.Ingress || rel == f.Egress {
				return fmt.Errorf("topospec: flow %d relay %q cannot be an endpoint", f.Index, rel)
			}
			if roles[rel] != topospec.RoleEdge {
				return fmt.Errorf("topospec: flow %d relay %q is not an edge node", f.Index, rel)
			}
		}
	}
	return nil
}

// corrupt applies one random edit to the spec: every field Validate reads is
// reachable, so between them the edits reach every rejection.
func corrupt(rng *rand.Rand, s *topospec.Spec) {
	node := func() string {
		if rng.Intn(6) == 0 {
			return "ghost"
		}
		return s.Nodes[rng.Intn(len(s.Nodes))].Name
	}
	f := &s.Flows[rng.Intn(len(s.Flows))]
	l := &s.Links[rng.Intn(len(s.Links))]
	switch rng.Intn(16) {
	case 0:
		s.Nodes[rng.Intn(len(s.Nodes))].Name = node()
	case 1:
		s.Nodes[rng.Intn(len(s.Nodes))].Role = topospec.NodeRole(rng.Intn(3))
	case 2:
		l.From = node()
	case 3:
		l.To = node()
	case 4:
		l.RateBps = float64(rng.Intn(3) - 1)
	case 5:
		l.Delay = -1
	case 6:
		i := rng.Intn(len(s.Links))
		s.Links = append(s.Links[:i], s.Links[i+1:]...)
	case 7:
		f.Index = s.Flows[rng.Intn(len(s.Flows))].Index
	case 8:
		f.Ingress = node()
	case 9:
		f.Egress = node()
	case 10:
		if len(f.Via) > 0 {
			f.Via = append([]string(nil), f.Via...)
			f.Via[rng.Intn(len(f.Via))] = node()
		}
	case 11:
		f.Via = f.Via[:rng.Intn(len(f.Via)+1)]
	case 12:
		f.Relays = append(append([]string(nil), f.Relays...), node())
	case 13:
		g := &s.Flows[rng.Intn(len(s.Flows))]
		f.Ingress, f.Egress, f.Via = g.Ingress, g.Egress, g.Via
	case 14:
		f.Via = nil
	case 15:
		s.Flows = nil
	}
}

// variableParts matches what differs between two instances of one message:
// quoted names, flow indices, and the link and path renderings.
var variableParts = regexp.MustCompile(`"[^"]*"|\d+|\S+->\S+|\(.*\)`)

// TestValidateMatchesReference corrupts generated specs of every kind, one to
// three random edits at a time, and compares verdict and message.
func TestValidateMatchesReference(t *testing.T) {
	gens := []topogen.Config{
		{Kind: topogen.KindFatTree, K: 4, Flows: 12},
		{Kind: topogen.KindNClouds, Clouds: 3, CoresPerCloud: 3, Through: 3, Local: 2, Remark: true},
		{Kind: topogen.KindMesh, Nodes: 8, Flows: 6},
	}
	rng := rand.New(rand.NewSource(3))
	messages := make(map[string]bool)
	for round := 0; round < 6000; round++ {
		spec, err := gens[round%len(gens)].Generate(int64(round))
		if err != nil {
			t.Fatal(err)
		}
		for edits := rng.Intn(4); edits > 0 && len(spec.Flows) > 0; edits-- {
			corrupt(rng, spec)
		}
		got, want := fmt.Sprint(spec.Validate()), fmt.Sprint(validateReference(spec))
		if got != want {
			t.Fatalf("round %d: Validate = %s\nreference = %s\nspec:\n%s", round, got, want, spec.Format())
		}
		messages[variableParts.ReplaceAllString(got, "_")] = true
	}
	if len(messages) < 17 { // of 21; three need two coordinated edits, one is unreachable
		t.Errorf("the corruptions reached only %d distinct verdicts: %v", len(messages), messages)
	}
}

var validateSink error

// BenchmarkSpecValidate100k validates the flow_fattree100k spec: 200k host
// nodes, 400k links, 100k seven-node via paths.
func BenchmarkSpecValidate100k(b *testing.B) {
	cfg, err := topogen.Parse("fattree:k=8,flows=100000,fabric=400Mbps")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := cfg.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		validateSink = spec.Validate()
	}
}
