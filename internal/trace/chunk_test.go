package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// chunkLog records the size of every Write it receives.
type chunkLog struct {
	bytes.Buffer
	sizes []int
}

func (c *chunkLog) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.Buffer.Write(p)
}

// TestWriteCSVChunkBoundaries renders results at chunk sizes that put a
// boundary inside the header, inside a row and inside a cell — 1 byte, a
// few bytes, about a row, and the whole output and either side of it — and
// holds every rendering to the map-based reference, byte for byte. The
// results carry wide headers, unordered series (the sorted copies) and
// empty series. Every Write but the last holds at least a chunk and less
// than a chunk plus one cell.
func TestWriteCSVChunkBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	wide := syntheticResult(300, 4)
	wide.Flows[17].AllowedRate = nil
	wide.Flows[40].AllowedRate = series(4, 1, 2, 2, 3, 3, 1, 4)
	results := map[string]*experiments.Result{
		"wide":          wide,
		"unsorted":      resultOf(series(3, 30, 1, 10, 2, 20), nil, series(1, 5, 2, 6, 3, 7)),
		"empty series":  resultOf(nil, series(1, 10, 2, 20), nil),
		"no rows":       resultOf(nil, nil),
		"no flows":      resultOf(),
		"huge cells":    resultOf(series(1, 1e300, 2, -1e300), series(1, 0.25)),
		"random ragged": randomResult(rng, 40),
	}
	for name, res := range results {
		for _, kind := range allKinds {
			var want bytes.Buffer
			if err := writeCSVReference(&want, res, kind); err != nil {
				t.Fatal(err)
			}
			row := want.Len() / max(1, bytes.Count(want.Bytes(), []byte{'\n'}))
			for _, chunk := range []int{1, 2, 3, 7, 16, row - 1, row, row + 1, want.Len() - 1, want.Len(), want.Len() + 1, csvChunk} {
				if chunk < 1 {
					continue
				}
				var got chunkLog
				if err := writeCSV(&got, res, kind, chunk); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s/%v chunk %d: output differs from the reference (%d vs %d bytes)\n got: %.200q\nwant: %.200q",
						name, kind, chunk, got.Len(), want.Len(), got.String(), want.String())
				}
				for i, n := range got.sizes[:len(got.sizes)-1] {
					if n < chunk || n >= chunk+csvCellMax {
						t.Fatalf("%s/%v chunk %d: write %d holds %d bytes", name, kind, chunk, i, n)
					}
				}
			}
			var got bytes.Buffer
			if err := WriteCSV(&got, res, kind); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s/%v: WriteCSV differs from the reference", name, kind)
			}
		}
	}
}

// randomResult is a seeded result of up to flows flows with ragged grids,
// repeated times and the odd unsorted or empty series.
func randomResult(rng *rand.Rand, flows int) *experiments.Result {
	ss := make([]metrics.Series, flows)
	for f := range ss {
		at := time.Duration(0)
		for n := rng.Intn(10); n > 0; n-- {
			if rng.Intn(4) > 0 {
				at += time.Duration(1+rng.Intn(3)) * 250 * time.Millisecond
			}
			ss[f] = append(ss[f], metrics.Sample{At: at, Value: float64(rng.Intn(1e7)) / 1600})
		}
		if rng.Intn(5) == 0 {
			rng.Shuffle(len(ss[f]), func(i, j int) { ss[f][i], ss[f][j] = ss[f][j], ss[f][i] })
		}
	}
	return resultOf(ss...)
}

// TestFluidBytesPerFlow pins what a generated fluid run allocates per flow,
// end to end as the benchmark's flow_fattree100k workload runs it: generate a
// heavy-tailed fat-tree, run it on the fluid engine with its oracle, and
// write the three CSVs into io.Discard — 10 s at 5 s windows, at 2 000 and
// 8 000 flows. The bytes per added flow stay under budget. It reads 1 904.
// It read 2 303 when the oracle built a second allocator, the control
// epoch kept sums for every link, the CSV writer buffered whole rows and
// normalize built two flow-sized weight maps.
func TestFluidBytesPerFlow(t *testing.T) {
	const lo, hi = 2000, 8000
	const budget = 2100.0
	bytesFor := func(flows int) float64 {
		gen, err := experiments.ParseGenerate(fmt.Sprintf("fattree:k=8,flows=%d,fabric=400Mbps", flows),
			"heavytail:elephants=0.05,eweight=4,unresp=0.01,urate=350,settle=4s")
		if err != nil {
			t.Fatal(err)
		}
		sc := experiments.Scenario{
			Name: "bytes-per-flow", Scheme: experiments.SchemeCorelite, Backend: experiments.BackendFlow,
			Duration: 10 * time.Second, SampleWindow: 5 * time.Second, Seed: 1, Generate: gen,
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := experiments.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range allKinds {
			if err := WriteCSV(io.Discard, res, kind); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	a, b := bytesFor(lo), bytesFor(hi)
	per := (b - a) / (hi - lo)
	t.Logf("%.0f bytes at %d flows, %.0f at %d: %.0f bytes per added flow", a, lo, b, hi, per)
	if per > budget {
		t.Errorf("%.0f bytes per added flow, over the budget of %.0f", per, budget)
	}
}
