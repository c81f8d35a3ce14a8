package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/experiments"
)

// shapedPin is the recorded output of one packet run whose flows pass
// through an edge's host queue: the SHA-256 of its three CSVs and its
// total loss count.
type shapedPin struct {
	digests map[SeriesKind]string
	losses  int64
}

// shapedPins were recorded on the commit before the backlogged source and
// the host-queue shaper became one pacer. No figure runs a TCP host or a
// relay segment, so the figure digests cannot see the host-queue path;
// these two runs can.
var shapedPins = map[string]shapedPin{
	"tcp-hosts": {
		digests: map[SeriesKind]string{
			SeriesAllowed:    "2728fee3b3b76a423a42b5dc3a8937a593d1bd2ec75dc5c654ff071d9907676a",
			SeriesReceived:   "9ab20951ae719831d71746faede8ade7f4752d53e0af740dfb84d48c546b3828",
			SeriesCumulative: "6203c864c0d24aa9b67cb3f7005bda9828525543ab65428496274fac3027f272",
		},
		losses: 4,
	},
	"nclouds-remark": {
		digests: map[SeriesKind]string{
			SeriesAllowed:    "9e65a6a09ee2d0509509bd3d259b6310e706fbbc7d825ef74cc763cdbfadf9cf",
			SeriesReceived:   "61ea24faf84ac5b8561973e51480019fbfd104e05f6628634848cb8ad268fd58",
			SeriesCumulative: "28222373ad934c3455075b6f2d189b6634f98b076b0aa343dc48e85d4a6a2ccc",
		},
		losses: 245,
	},
}

// shapedScenarios are the two pinned runs: the examples/tcp-hosts scenario
// (three TCP hosts behind Corelite shapers on a dumbbell) and a 20 s
// N-cloud run whose through flows are re-shaped at every gateway.
func shapedScenarios(t *testing.T) map[string]experiments.Scenario {
	gen, err := experiments.ParseGenerate("nclouds:n=3,through=2,local=2,remark=1", "")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]experiments.Scenario{
		"tcp-hosts": {
			Name:     "tcp-hosts",
			Scheme:   experiments.SchemeCorelite,
			Duration: 120 * time.Second,
			Seed:     5,
			NumFlows: 3,
			Weights:  map[int]float64{1: 1, 2: 2, 3: 3},
			Dumbbell: true,
			Transports: map[int]experiments.Transport{
				1: experiments.TransportTCP,
				2: experiments.TransportTCP,
				3: experiments.TransportTCP,
			},
		},
		"nclouds-remark": {
			Name:     "nclouds-remark",
			Scheme:   experiments.SchemeCorelite,
			Duration: 20 * time.Second,
			Seed:     1,
			Generate: gen,
		},
	}
}

// TestShapedPathsCSVPinned holds the host-queue pacing path — TCP segments
// offered to an edge shaper, relay segments re-offered at a gateway — to
// the bytes and losses it produced before the pacers were merged.
func TestShapedPathsCSVPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("120 s packet run; skipped in -short")
	}
	for name, sc := range shapedScenarios(t) {
		name, sc := name, sc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := experiments.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			pin := shapedPins[name]
			for _, kind := range allKinds {
				h := sha256.New()
				if err := WriteCSV(h, res, kind); err != nil {
					t.Fatalf("WriteCSV(%v): %v", kind, err)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != pin.digests[kind] {
					t.Errorf("%v CSV digest = %s, want %s", kind, got, pin.digests[kind])
				}
			}
			if res.TotalLosses != pin.losses {
				t.Errorf("TotalLosses = %d, want %d", res.TotalLosses, pin.losses)
			}
			t.Logf("%d events", res.Events)
		})
	}
}
