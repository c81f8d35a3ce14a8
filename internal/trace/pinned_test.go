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

// atScaleFlowDigests are the SHA-256 of the three CSVs of the four at-scale
// figures (11–14) on the flow backend at seed 1, recorded on the commit where
// fully pinned specs below 256 flows still went through the routed packet
// cloud to reach the fluid model. The direct spec builder now serves them;
// the bytes may not move.
var atScaleFlowDigests = map[string]map[SeriesKind]string{
	"fairness-at-scale-corelite": {
		SeriesAllowed:    "7599a06fec1f0ab633e340d579f818957e4735dbc2dc7da80d0ab0da8d109afd",
		SeriesReceived:   "6bb1940ac2ad0025d0d1acef46536a4d6e5d29b5d5b3f47f579c94e753bc638d",
		SeriesCumulative: "e299a61465bde0d2de551a3503b89cf1347ab07106aa6f9fb1881b5190d71e46",
	},
	"fairness-at-scale-csfq": {
		SeriesAllowed:    "b46f464c1611cbd11d603825e3e492bb9676ff99dd2b71d2d98adaf630d6a03a",
		SeriesReceived:   "753d3a895a4b2e70ae987bdacde47ccb5fe62f7388723d2509c37cc53d56d0f2",
		SeriesCumulative: "79513fab04ff564d17a1685a27c62c84a642d413280d18936b2518988ab2231e",
	},
	"churn-tail-corelite": {
		SeriesAllowed:    "7c8d24cf117fa4640d667896ae9d3c3bba0d3efc224fd280a71423521f7eacaf",
		SeriesReceived:   "32c579c64cf02a03e8069bea304b1e7235c1a38a4f5e28b62a46fd55b5eb978c",
		SeriesCumulative: "5e9e46fd73d3d03bfb4107c100dcc1dc9afd9901bb6e8e705ddd599b2841abef",
	},
	"churn-tail-csfq": {
		SeriesAllowed:    "b4423f5b52ceb88ee35131b458ff8f01059de6b71c0675f026163b93e9e3b7d1",
		SeriesReceived:   "4afa9929d6b5e23887eab7b5bda2cd5587078752fd9eabe889a517022a682afa",
		SeriesCumulative: "c6e1d5f32dcaa69e410fdbf1924fc6c8a5dd8d7e203637ea2b01e6a88352aa36",
	},
}

// TestAtScaleFlowCSVPinned holds the at-scale figures on the flow backend to
// the bytes they rendered through the cloud builder.
func TestAtScaleFlowCSVPinned(t *testing.T) {
	for _, sc := range experiments.AllFigures(1)[8:] {
		sc := sc
		sc.Backend = experiments.BackendFlow
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := experiments.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range allKinds {
				h := sha256.New()
				if err := WriteCSV(h, res, kind); err != nil {
					t.Fatalf("WriteCSV(%v): %v", kind, err)
				}
				if got, want := hex.EncodeToString(h.Sum(nil)), atScaleFlowDigests[sc.Name][kind]; got != want {
					t.Errorf("%v CSV digest = %s, want %s", kind, got, want)
				}
			}
		})
	}
}
