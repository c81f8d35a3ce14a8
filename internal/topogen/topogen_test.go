package topogen

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topospec"
)

func TestParseGrammar(t *testing.T) {
	cfg, err := Parse("fattree:k=8,flows=48,host=16Mbps,fabric=4Mbps")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.Kind != KindFatTree || cfg.K != 8 || cfg.Flows != 48 {
		t.Errorf("fattree config = %+v", cfg)
	}
	if cfg.HostRateBps != 16e6 || cfg.FabricRateBps != 4e6 {
		t.Errorf("rates = %v / %v, want 16M / 4M", cfg.HostRateBps, cfg.FabricRateBps)
	}

	cfg, err = Parse("nclouds:n=3,cores=4,through=2,local=1,remark=1")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.Kind != KindNClouds || cfg.Clouds != 3 || cfg.CoresPerCloud != 4 || !cfg.Remark {
		t.Errorf("nclouds config = %+v", cfg)
	}

	cfg, err = Parse("fattree:trunk=8Mbps,hostdelay=1ms,delay=2ms,queue=64")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.TrunkRateBps != 8e6 || cfg.HostDelay != time.Millisecond || cfg.FabricDelay != 2*time.Millisecond || cfg.QueueCap != 64 {
		t.Errorf("link options = %+v", cfg)
	}

	cfg, err = Parse("mesh:nodes=8,degree=3,flows=6,maxweight=5")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.Nodes != 8 || cfg.Degree != 3 || cfg.Flows != 6 || cfg.MaxWeight != 5 {
		t.Errorf("mesh config = %+v", cfg)
	}

	if cfg, err := Parse("nclouds"); err != nil || cfg.Kind != KindNClouds {
		t.Errorf("bare kind: %+v, %v", cfg, err)
	}

	if _, err := Parse("torus:k=4"); err == nil {
		t.Error("Parse accepted unknown kind")
	}
	if _, err := Parse("mesh:sides=4"); err == nil {
		t.Error("Parse accepted unknown option")
	}
	if _, err := Parse("fattree:k=banana"); err == nil {
		t.Error("Parse accepted non-numeric k")
	}
	if _, err := Parse("fattree:k"); err == nil {
		t.Error("Parse accepted a value-less option")
	}
}

func TestKindString(t *testing.T) {
	for kind, want := range map[Kind]string{
		KindFatTree: "fattree",
		KindNClouds: "nclouds",
		KindMesh:    "mesh",
		Kind(0):     "Kind(0)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(kind), got, want)
		}
	}
}

func TestIsSpec(t *testing.T) {
	for _, s := range []string{"fattree", "fattree:k=4", "nclouds:n=3", "mesh"} {
		if !IsSpec(s) {
			t.Errorf("IsSpec(%q) = false", s)
		}
	}
	for _, s := range []string{"", "topo.spec", "testdata/fat.txt", "FatTree:k=4"} {
		if IsSpec(s) {
			t.Errorf("IsSpec(%q) = true", s)
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	cfg := Config{Kind: KindFatTree, K: 4, Flows: 8}
	spec, err := cfg.Generate(1)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// k=4: 4 core switches + 4 pods × (2 agg + 2 edge) = 20 switches,
	// plus an ingress/egress host pair per flow.
	var switches, hosts int
	for _, n := range spec.Nodes {
		if n.Role == topospec.RoleCore {
			switches++
		} else {
			hosts++
		}
	}
	if switches != 20 || hosts != 16 {
		t.Errorf("fat-tree k=4: %d switches, %d hosts; want 20, 16", switches, hosts)
	}
	if len(spec.Flows) != 8 {
		t.Fatalf("flows = %d, want 8", len(spec.Flows))
	}
	for _, f := range spec.Flows {
		if len(f.Via) < 5 {
			t.Errorf("flow %d via %v too short: every flow must cross the fabric", f.Index, f.Via)
		}
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("generated spec fails Validate: %v", err)
	}
	if _, err := spec.Build(sim.NewScheduler()); err != nil {
		t.Fatalf("generated spec fails Build: %v", err)
	}
}

func TestFatTreeDeterminism(t *testing.T) {
	cfg := Config{Kind: KindFatTree, K: 4, Flows: 16}
	a, err := cfg.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Error("same (config, seed) produced different specs")
	}
	c, err := cfg.Generate(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() == c.Format() {
		t.Error("different seeds produced byte-identical specs (host placement should move)")
	}
}

func TestFatTreeRejections(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"odd arity", Config{Kind: KindFatTree, K: 5}},
		{"zero arity", Config{Kind: KindFatTree, K: 0}},
		{"negative flows", Config{Kind: KindFatTree, K: 4, Flows: -1}},
		// Inter- and intra-pod path counts are (k/2)^2 and k/2; index 99
		// is out of range for every k=4 flow.
		{"ecmp out of range", Config{Kind: KindFatTree, K: 4, Flows: 4, ECMP: map[int]int{1: 99}}},
		{"ecmp negative", Config{Kind: KindFatTree, K: 4, Flows: 4, ECMP: map[int]int{1: -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cfg.Generate(1); err == nil {
				t.Errorf("Generate accepted %+v", tc.cfg)
			}
		})
	}
}

// TestFatTreeECMPPin pins the in-range ECMP override: the chosen core is
// baked into the via path, so pinning different indices must yield
// different paths for the same flow.
func TestFatTreeECMPPin(t *testing.T) {
	paths := make(map[string]bool)
	for pin := 0; pin < 4; pin++ {
		cfg := Config{Kind: KindFatTree, K: 4, Flows: 1, ECMP: map[int]int{1: pin}}
		spec, err := cfg.Generate(3)
		if err != nil {
			t.Fatalf("pin %d: %v", pin, err)
		}
		paths[strings.Join(spec.Flows[0].Via, " ")] = true
	}
	// Flow 1 at seed 3 is inter-pod (4 distinct paths) or intra-pod (2);
	// either way pinning must produce more than one distinct path.
	if len(paths) < 2 {
		t.Errorf("ECMP pinning produced %d distinct paths, want >= 2", len(paths))
	}
}

func TestNClouds(t *testing.T) {
	cfg := Config{Kind: KindNClouds, Clouds: 3, CoresPerCloud: 3, Through: 2, Local: 1, Remark: true}
	spec, err := cfg.Generate(1)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if want := cfg.Through + cfg.Clouds*cfg.Local; len(spec.Flows) != want {
		t.Fatalf("flows = %d, want %d (through + clouds*local)", len(spec.Flows), want)
	}
	// Through flows come first and re-mark at each of the n-1 gateways.
	for i := 0; i < cfg.Through; i++ {
		f := spec.Flows[i]
		if len(f.Relays) != cfg.Clouds-1 {
			t.Errorf("through flow %d has %d relays, want %d", f.Index, len(f.Relays), cfg.Clouds-1)
		}
		for _, r := range f.Relays {
			if !strings.HasPrefix(r, "g") {
				t.Errorf("through flow %d relay %q is not a gateway", f.Index, r)
			}
		}
	}
	// Local flows never leave their cloud.
	for i := cfg.Through; i < len(spec.Flows); i++ {
		if f := spec.Flows[i]; len(f.Relays) != 0 {
			t.Errorf("local flow %d has relays %v", f.Index, f.Relays)
		}
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("generated spec fails Validate: %v", err)
	}

	// Without re-marking the through flows keep one control segment.
	cfg.Remark = false
	spec, err = cfg.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Flows[0].Relays) != 0 {
		t.Error("remark=false still produced relays")
	}

	if _, err := (Config{Kind: KindNClouds, Clouds: 1}).Generate(1); err == nil {
		t.Error("Generate accepted a single-cloud concatenation")
	}
}

func TestMesh(t *testing.T) {
	cfg := Config{Kind: KindMesh, Nodes: 6, Degree: 2, Flows: 6, MaxWeight: 4}
	a, err := cfg.Generate(5)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(a.Flows) != 6 {
		t.Fatalf("flows = %d, want 6", len(a.Flows))
	}
	for _, f := range a.Flows {
		if f.Weight < 1 || f.Weight > 4 {
			t.Errorf("flow %d weight %v outside 1..4", f.Index, f.Weight)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated spec fails Validate: %v", err)
	}
	b, err := cfg.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Error("same (config, seed) produced different meshes")
	}
	if _, err := (Config{Kind: KindMesh, Nodes: 2}).Generate(1); err == nil {
		t.Error("Generate accepted a 2-node mesh")
	}
}

func TestGenerateNoKind(t *testing.T) {
	if _, err := (Config{}).Generate(1); err == nil {
		t.Error("Generate accepted a kind-less config")
	}
}

// TestGeneratedSpecsValidate pins the generators' contract — every spec
// they return passes topospec.Validate — over a grid of parameters and
// seeds. The generators do not check their own output at run time; the
// builder that uses a spec validates it, and this test is what keeps a
// generator bug from surfacing there as a refused scenario.
func TestGeneratedSpecsValidate(t *testing.T) {
	var cfgs []Config
	for _, k := range []int{2, 4, 6, 8} {
		for _, flows := range []int{1, 7, 64} {
			cfgs = append(cfgs, Config{Kind: KindFatTree, K: k, Flows: flows})
		}
	}
	// ECMP pins at both ends of every flow's range: intra-pod flows have
	// k/2 paths, so 0 and 1 are in range for any of them at k=4.
	pins := make(map[int]int)
	for f := 1; f <= 32; f++ {
		pins[f] = f % 2
	}
	cfgs = append(cfgs, Config{Kind: KindFatTree, K: 4, Flows: 32, ECMP: pins})
	for _, n := range []int{2, 3, 5} {
		for _, remark := range []bool{false, true} {
			cfgs = append(cfgs,
				Config{Kind: KindNClouds, Clouds: n, CoresPerCloud: 1, Through: 1, Local: 0, Remark: remark},
				Config{Kind: KindNClouds, Clouds: n, CoresPerCloud: 3, Through: 5, Local: 2, Remark: remark})
		}
	}
	for _, nodes := range []int{3, 8, 20} {
		for _, degree := range []int{0, 2, 5} {
			cfgs = append(cfgs, Config{Kind: KindMesh, Nodes: nodes, Degree: degree, Flows: 12})
		}
	}
	for _, cfg := range cfgs {
		for seed := int64(1); seed <= 5; seed++ {
			spec, err := cfg.Generate(seed)
			if err != nil {
				t.Fatalf("%+v seed %d: %v", cfg, seed, err)
			}
			if err := spec.Validate(); err != nil {
				t.Errorf("%+v seed %d: generated spec fails Validate: %v", cfg, seed, err)
			}
		}
	}
}
