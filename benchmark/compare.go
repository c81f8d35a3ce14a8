package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdicts of one end-to-end metric on one workload, B against A.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	// verdictUnresolved: the medians are within the bound but the runs of
	// either side are spread wider than the bound, so "unchanged" cannot be
	// claimed from these files.
	verdictUnresolved = "unresolved"
)

// worsening is how much worse b's median is than a's, as a share of a's;
// negative when b is better.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if def.Better == "higher" {
		d = -d
	}
	return d
}

func judge(def metricDef, a, b stat) (delta float64, verdict string) {
	delta = worsening(def, a.Median, b.Median)
	switch {
	case delta > def.Bound:
		return delta, verdictRegression
	case a.spread() > def.Bound || b.spread() > def.Bound:
		return delta, verdictUnresolved
	case delta < -def.Bound:
		return delta, verdictBetter
	default:
		return delta, verdictOK
	}
}

func readEnvelope(path string) (envelope, error) {
	var env envelope
	data, err := os.ReadFile(path)
	if err != nil {
		return env, err
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return env, fmt.Errorf("%s: %w", path, err)
	}
	return env, nil
}

// compareFiles prints, per workload, every end-to-end metric of two result
// files with its relative change and bound, then whether the simulated
// results (digests, count metrics) agree exactly when the seeds do. It
// returns non-zero on a regression or, for equal seeds, on any difference in
// a simulated result.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readEnvelope(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readEnvelope(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	sameSeed := a.Seed == b.Seed
	fmt.Fprintf(stdout, "A: %s seed=%d rev=%s\nB: %s seed=%d rev=%s\n", pathA, a.Seed, a.GitRev, pathB, b.Seed, b.GitRev)
	if !sameSeed {
		fmt.Fprintln(stdout, "seeds differ: digests and counts are not comparable, only medians against their bounds")
	}
	byName := make(map[string]workloadResult, len(b.Workloads))
	for _, w := range b.Workloads {
		byName[w.Workload] = w
	}
	bad, compared := 0, 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			continue
		}
		compared++
		fmt.Fprintf(stdout, "\n== %s\n", wa.Workload)
		if wa.EndToEnd != nil && wb.EndToEnd != nil {
			fmt.Fprintf(stdout, "  %-20s %14s %14s %9s %7s  %s\n", "metric", "A median", "B median", "worse by", "bound", "verdict")
			for _, def := range endToEnd {
				sa, sb := wa.EndToEnd.Metrics[def.Name], wb.EndToEnd.Metrics[def.Name]
				delta, verdict := judge(def, sa, sb)
				if verdict == verdictRegression {
					bad++
				}
				fmt.Fprintf(stdout, "  %-20s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", def.Name, sa.Median, sb.Median, 100*delta, 100*def.Bound, verdict)
			}
			if sameSeed {
				bad += exact(stdout, "end-to-end digest", wa.EndToEnd.Digest, wb.EndToEnd.Digest)
				for _, name := range []string{"jain_norm", "delivered_share"} {
					bad += exact(stdout, name, wa.EndToEnd.Metrics[name].Median, wb.EndToEnd.Metrics[name].Median)
				}
			}
		}
		if sameSeed && wa.Layers != nil && wb.Layers != nil {
			bad += exact(stdout, "traced digest", wa.Layers.Digest, wb.Layers.Digest)
			counts, differ := 0, 0
			for _, def := range perLayer {
				if def.Unit != "count" {
					continue
				}
				counts++
				if va, vb := wa.Layers.Metrics[def.Name], wb.Layers.Metrics[def.Name]; va != vb {
					differ++
					fmt.Fprintf(stdout, "  count %s differs: %v vs %v\n", def.Name, va, vb)
				}
			}
			fmt.Fprintf(stdout, "  per-layer counts: %d compared, %d differ\n", counts, differ)
			bad += differ
		}
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "benchmark: the two files share no workload")
		return 2
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\n%d regressions or simulated-result differences\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "\nno regression")
	return 0
}

// exact reports whether a simulated quantity repeated exactly; it returns 1
// when it did not.
func exact[T comparable](w io.Writer, what string, a, b T) int {
	if a == b {
		fmt.Fprintf(w, "  %s: identical\n", what)
		return 0
	}
	fmt.Fprintf(w, "  %s: DIFFERS (%v vs %v)\n", what, a, b)
	return 1
}
