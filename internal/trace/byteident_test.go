package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// figureDigests are the SHA-256 of every figure's CSV at seed 1 on the
// packet backend, recorded on the commit before the calendar queue became
// the scheduler's only queue (there: 4-ary heap, fused link pipeline; the
// calendar and the unfused pipeline rendered the same bytes). The queue, the
// event tiers and the tickers' re-arm are performance choices only; any
// divergence means the event order moved.
var figureDigests = map[string]string{
	"fig3-corelite-dynamics":     "beaba556660906f70a330e80e5063244efa55c5650fe77046e9ac507a477e36e",
	"fig4-corelite-cumulative":   "e6d814fe35ceca5106c0956df601ccb4c5021225189e15f4abdad85ef17ad72c",
	"fig5-corelite-startup":      "6af0d16ee215734c52b1b75f2f55477b3119630f37dd58fb7d1abd9aa4375c2d",
	"fig6-csfq-startup":          "209e5ec30dcf187fe510e24b0cf37d3555beee308014afd38436b67c1f9da2d1",
	"fig7-corelite-staggered":    "a09fabccb27c8b1ce3fa703b05491254e844a08b99a7aa5e534b4048d42057a1",
	"fig8-csfq-staggered":        "f17318ff25db9144b49e98c1ba2ca4c5e851b3fc2b5c50fe8651a607b9217df6",
	"fig9-corelite-churn":        "5b89859e271229b4ade725f41bf9ea0b7bb4f15212ccde1fb04dde6ef8a48ff6",
	"fig10-csfq-churn":           "7736558f593f773e2226b0455547a39766453f979a99c7bafafc70187a3e3a14",
	"fairness-at-scale-corelite": "81e865f6584821a7949ab81d358998c9b20e68ae6a8c3e8f6586ef1e476bd087",
	"fairness-at-scale-csfq":     "c772075098444201e672cc7350301259cd1fae1ae554a98d45bd237ff9738db7",
	"churn-tail-corelite":        "3be33cb3cf7d8f940988c5c511a78ffb15f4dc954230cb2e4f36b1d7b805cf7c",
	"churn-tail-csfq":            "06341123cb548a2a358e1e9470d2f1daf936dfe57414e383bf60ec771923b9b4",
}

// TestFigureCSVByteIdentity holds the full evaluation to the recorded bytes:
// every figure of §4 and every at-scale figure renders the byte-for-byte
// identical CSV it rendered before the scheduler was reduced to one queue.
func TestFigureCSVByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure runs; skipped in -short")
	}
	figs := experiments.AllFigures(1)
	if len(figs) != len(figureDigests) {
		t.Fatalf("AllFigures returns %d scenarios, %d digests recorded", len(figs), len(figureDigests))
	}
	for _, sc := range figs {
		kind := SeriesAllowed
		if strings.Contains(sc.Name, "cumulative") {
			kind = SeriesCumulative
		}
		sc, kind := sc, kind
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := experiments.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := WriteCSV(h, res, kind); err != nil {
				t.Fatalf("WriteCSV: %v", err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != figureDigests[sc.Name] {
				t.Errorf("CSV digest = %s, want %s", got, figureDigests[sc.Name])
			}
		})
	}
}
