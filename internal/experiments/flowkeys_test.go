package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/topospec"
)

// TestFlowIndexSet holds both of flowIndexSet's lookups — the range check
// for dense indices 1..n and the sorted copy for any other indices, sparse
// ascending and out of order among them — to a map over the same flows, on
// keys inside, between and around them.
func TestFlowIndexSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, indices := range map[string][]int{
		"dense":     {1, 2, 3, 4, 5, 6},
		"ascending": {2, 3, 7, 8, 40},
		"repeated":  {1, 1, 2, 3},
		"unordered": {9, 2, 5, 1, 30},
		"empty":     nil,
		"random":    rng.Perm(50)[:20],
	} {
		flows := make([]topospec.FlowSpec, len(indices))
		want := make(map[int]bool)
		for i, idx := range indices {
			flows[i].Index = idx
			want[idx] = true
		}
		has := flowIndexSet(flows)
		for idx := -2; idx <= 60; idx++ {
			if has(idx) != want[idx] {
				t.Errorf("%s: has(%d) = %v, want %v", name, idx, has(idx), want[idx])
			}
		}
	}
}
