package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/experiments"
)

// densePin is the recorded output of denseFatTreeScenario: the SHA-256 of
// its three CSVs, its total loss count and the number of events the
// scheduler executed. They were recorded on the commit before the calendar
// queue started sizing itself.
var densePin = struct {
	digests map[SeriesKind]string
	losses  int64
	events  uint64
}{
	digests: map[SeriesKind]string{
		SeriesAllowed:    "6f4eb8d6c575c1c3d0b71b35d59b9f2c198f01b5f0d8ca1d90729846df4bb026",
		SeriesReceived:   "94dc9fb564c8065e6b192492a76f0f0aae1eb763c6179c4fb71b29a91383ee19",
		SeriesCumulative: "547ef9cfda6baaa6d08330d36e01b69c9c204a3fda0a7705bc40bb9f4ffc3ab2",
	},
	losses: 27483,
	events: 11688753,
}

// denseFatTreeScenario is the packet run with the deepest event queue the
// repository benchmarks: 256 heavy-tailed flows on six-hop k=8 fat-tree
// paths keep several hundred events pending, about 165 per 1 ms. Every
// figure runs near ten, so only this run reaches the dense-queue regime.
// The horizon is the benchmark's 60 s: the heavy-tail generator reserves a
// 45 s settle tail, so a shorter run has no churn.
func denseFatTreeScenario(t *testing.T) experiments.Scenario {
	gen, err := experiments.ParseGenerate("fattree:k=8,flows=256", "heavytail:unresp=0.05,urate=350")
	if err != nil {
		t.Fatal(err)
	}
	return experiments.Scenario{
		Name:     "dense-fattree",
		Scheme:   experiments.SchemeCorelite,
		Duration: 60 * time.Second,
		Seed:     1,
		Generate: gen,
	}
}

// TestDenseFatTreePacketPinned holds a dense packet run to its bytes, its
// losses and its executed-event count. Queue geometry may change what an
// event costs, never which events run or in what order.
func TestDenseFatTreePacketPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("60 s dense packet run; skipped in -short")
	}
	t.Parallel()
	res, err := experiments.Run(denseFatTreeScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allKinds {
		h := sha256.New()
		if err := WriteCSV(h, res, kind); err != nil {
			t.Fatalf("WriteCSV(%v): %v", kind, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != densePin.digests[kind] {
			t.Errorf("%v CSV digest = %s, want %s", kind, got, densePin.digests[kind])
		}
	}
	if res.TotalLosses != densePin.losses {
		t.Errorf("TotalLosses = %d, want %d", res.TotalLosses, densePin.losses)
	}
	if res.Events != densePin.events {
		t.Errorf("Events = %d, want %d", res.Events, densePin.events)
	}
}
