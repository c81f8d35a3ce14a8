package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/experiments"
)

// midScaleDigests are the SHA-256 of the three CSVs of midScaleScenario,
// recorded on the commit before the emit path and the control-epoch sweep
// were rewritten (map-based WriteCSV, dense per-epoch link sweep). The
// scenario sits above the 256-flow cutoff, so it runs the incremental solver,
// the direct spec build and heavy-tailed churn — the paths the figure
// byte-identity pins never reach.
var midScaleDigests = map[SeriesKind]string{
	SeriesAllowed:    "522176499aacf94f58ee84cfceb091b8b069867c736384341589c9b84302cb99",
	SeriesReceived:   "6894dab99fb0e4b8f76d1cab5840a35de8ba60e05524f3fd76bb2df26dad98a1",
	SeriesCumulative: "0c2f8e7c5cc1f3e7694e9a1e0d818e0a0a3a53250ae0b5d5a39a366dcdf949d6",
}

func midScaleScenario(t *testing.T) experiments.Scenario {
	gen, err := experiments.ParseGenerate("fattree:k=4,flows=2000", "heavytail")
	if err != nil {
		t.Fatal(err)
	}
	return experiments.Scenario{
		Name:         "midscale-fattree",
		Scheme:       experiments.SchemeCorelite,
		Backend:      experiments.BackendFlow,
		Duration:     90 * time.Second,
		SampleWindow: 5 * time.Second,
		Seed:         1,
		Generate:     gen,
	}
}

// TestMidScaleCSVPinned holds the whole fluid result path — spec build,
// engine, result assembly, CSV emit — to the bytes it produced before the
// rewrite, and the emit alone to the map-based reference.
func TestMidScaleCSVPinned(t *testing.T) {
	t.Parallel()
	res, err := experiments.Run(midScaleScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesReference(t, res)
	for _, kind := range allKinds {
		h := sha256.New()
		if err := WriteCSV(h, res, kind); err != nil {
			t.Fatalf("WriteCSV(%v): %v", kind, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != midScaleDigests[kind] {
			t.Errorf("%v CSV digest = %s, want %s", kind, got, midScaleDigests[kind])
		}
	}
}
