// Command fluid iterates the analytical (fluid) model of Corelite's
// weighted LIMD control loop and prints the rate trajectory — the
// "analysis" companion to the packet-level simulation (paper §2.2: the
// rates "asymptotically oscillate around the intersection of the fairness
// and efficiency lines"). The iteration itself is flowsim.RunLIMD, the
// repository's single implementation of the §2.2 recurrence (also the
// control loop of the flow backend); this command adds the error metrics
// and convergence detection on top.
//
//	fluid -capacity 500 -weights 1,1,2,2,3,3,4,4,5,5 -epochs 20000
//	fluid -epochs 200000 -progress -obs out/obs
//	fluid -topo fattree:k=4,flows=16 -traffic heavytail  # generated weight profile
//
// -topo, -traffic and -seed are the flags every command shares
// (internal/cli); -check, -obs and -progress are this command's own. With
// -check the final rates are compared with the closed-form weighted max-min
// oracle. With -obs DIR the tool writes a telemetry bundle of the
// trajectory into DIR (limd.-prefixed): per-flow rate/<i> gauge series
// sampled at every recorded state (epochs mapped to simulated time at
// 100 ms per epoch), exported as series.csv, counters.csv, hist/perf stubs
// and a Chrome trace. With -progress a wall-clock ticker prints live
// iteration progress to stderr every 2 seconds. Neither flag changes the
// printed trajectory.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/flowsim"
	"repro/internal/obs"
	"repro/internal/topospec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fluid:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fluid", flag.ContinueOnError)
	var f cli.Flags
	f.RegisterSeed(fs)
	f.RegisterTopology(fs)
	capacity := fs.Float64("capacity", 500, "bottleneck capacity (pkt/s)")
	weightsArg := fs.String("weights", "1,1,2,2,3,3,4,4,5,5", "comma-separated flow weights (-topo replaces them with its flows' weights)")
	initialArg := fs.String("initial", "", "comma-separated initial rates (default: all 32, the slow-start exit)")
	epochs := fs.Int("epochs", 20000, "epochs to iterate")
	sample := fs.Int("sample", 1000, "print every N-th state")
	tol := fs.Float64("tol", 0.1, "convergence tolerance for the summary")
	check := fs.Bool("check", false, "verify the final fluid rates against the weighted max-min oracle (within -tol); a mismatch fails the command")
	obsDir := fs.String("obs", "", "directory for a telemetry bundle of the trajectory (limd.series.csv, limd.trace.json, ...)")
	progress := fs.Bool("progress", false, "print live iteration progress to stderr every 2s")
	if err := fs.Parse(args); err != nil {
		return err
	}

	weights, err := parseFloats(*weightsArg)
	if err != nil {
		return fmt.Errorf("weights: %w", err)
	}
	if gen, spec, err := f.Topology(); err != nil {
		return err
	} else if gen != nil || spec != nil {
		if weights, err = topologyWeights(gen, spec, f.Seed); err != nil {
			return err
		}
		fmt.Printf("generated %d flow weights from %s\n", len(weights), f.Topo)
	}
	var initial []float64
	if *initialArg == "" {
		initial = make([]float64, len(weights))
		for i := range initial {
			initial[i] = 32
		}
	} else {
		initial, err = parseFloats(*initialArg)
		if err != nil {
			return fmt.Errorf("initial: %w", err)
		}
	}

	cfg := flowsim.LIMDConfig{Capacity: *capacity, Weights: weights, Initial: initial}
	var stopProgress func()
	if *progress {
		tracker := new(obs.Progress)
		cfg.Progress = tracker
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					s := tracker.Snapshot()
					pct := 0.0
					if s.Horizon > 0 {
						pct = 100 * float64(s.Sim) / float64(s.Horizon)
					}
					fmt.Fprintf(os.Stderr, "progress epoch %d/%d (%.1f%%), %d flows\n",
						s.Events, *epochs, pct, s.ActiveFlows)
				}
			}
		}()
		stopProgress = func() {
			close(stop)
			<-done
		}
	}
	states, err := flowsim.RunLIMD(cfg, *epochs, *sample)
	if stopProgress != nil {
		stopProgress()
	}
	if err != nil {
		return err
	}
	if *obsDir != "" {
		if err := writeObsBundle(*obsDir, states, len(weights), *epochs); err != nil {
			return err
		}
	}
	fmt.Printf("%-8s %-10s %-10s  rates\n", "epoch", "fair-err", "eff-err")
	for _, st := range states {
		fmt.Printf("%-8d %-10.4f %-10.4f  %s\n",
			st.Epoch,
			fairnessError(st.Rates, weights),
			efficiencyError(st.Rates, *capacity),
			formatRates(st.Rates))
	}
	if epoch, ok := convergenceEpoch(states, weights, *capacity, *tol); ok {
		fmt.Printf("\nconverged to within %.0f%% of the fairness/efficiency intersection by epoch %d\n", *tol*100, epoch)
	} else {
		fmt.Printf("\ndid not converge to within %.0f%% over %d epochs\n", *tol*100, *epochs)
	}
	if *check {
		return checkOracle(states[len(states)-1].Rates, weights, *capacity, *tol)
	}
	return nil
}

// topologyWeights returns the per-flow weight vector, in flow order, of the
// -topo scenario: a spec file's flows, or a generated topology's with any
// -traffic workload's weights laid over its flow slots. The LIMD recurrence
// models one shared bottleneck, so only the weight profile carries over,
// not the link structure.
func topologyWeights(gen *experiments.Generate, spec *topospec.Spec, seed int64) ([]float64, error) {
	if gen != nil {
		var err error
		if spec, err = gen.Topo.Generate(seed); err != nil {
			return nil, err
		}
	}
	weights := make([]float64, len(spec.Flows))
	for i, fl := range spec.Flows {
		weights[i] = fl.Weight
	}
	if gen != nil && gen.Traffic != nil {
		tc := *gen.Traffic
		if tc.Horizon == 0 {
			tc.Horizon = time.Minute
		}
		wl, err := tc.Generate(seed, len(spec.Flows))
		if err != nil {
			return nil, err
		}
		for i, fl := range spec.Flows {
			if w, ok := wl.Weights[fl.Index]; ok {
				weights[i] = w
			}
		}
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("topology has no flows")
	}
	return weights, nil
}

// fairnessError reports the relative L∞ distance of the rates' normalized
// vector from perfect weighted fairness: max_i |n_i − n̄| / n̄ where
// n_i = b_i/w_i.
func fairnessError(rates, weights []float64) float64 {
	if len(rates) == 0 || len(rates) != len(weights) {
		return math.Inf(1)
	}
	mean := 0.0
	norm := make([]float64, len(rates))
	for i := range rates {
		norm[i] = rates[i] / weights[i]
		mean += norm[i]
	}
	mean /= float64(len(norm))
	if mean <= 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for _, n := range norm {
		if d := math.Abs(n-mean) / mean; d > worst {
			worst = d
		}
	}
	return worst
}

// efficiencyError reports |Σ rates − C| / C.
func efficiencyError(rates []float64, capacity float64) float64 {
	if capacity <= 0 {
		return math.Inf(1)
	}
	total := 0.0
	for _, r := range rates {
		total += r
	}
	return math.Abs(total-capacity) / capacity
}

// convergenceEpoch reports the first recorded epoch from which both the
// fairness and efficiency errors stay within tol until the end of the
// trajectory, and false if the trajectory never settles.
func convergenceEpoch(states []flowsim.LIMDState, weights []float64, capacity, tol float64) (int, bool) {
	last := -1
	for i := len(states) - 1; i >= 0; i-- {
		if fairnessError(states[i].Rates, weights) <= tol && efficiencyError(states[i].Rates, capacity) <= tol {
			last = i
			continue
		}
		break
	}
	if last < 0 {
		return 0, false
	}
	return states[last].Epoch, true
}

// writeObsBundle exports the recorded trajectory as a standard telemetry
// bundle: one rate/<i> gauge per flow, sampled at every recorded state with
// epochs mapped onto simulated time at flowsim.LIMDEpoch per iteration, plus
// the iteration counter. The bundle is derived from the already-computed
// states, so it can never perturb the trajectory.
func writeObsBundle(dir string, states []flowsim.LIMDState, flows, epochs int) error {
	reg := obs.NewRegistry()
	gauges := make([]*obs.Gauge, flows)
	for i := range gauges {
		gauges[i] = reg.Gauge(obs.PrefixRate + strconv.Itoa(i))
	}
	for _, st := range states {
		for i, g := range gauges {
			g.Set(st.Rates[i])
		}
		reg.Sample(time.Duration(st.Epoch) * flowsim.LIMDEpoch)
	}
	reg.Counter("fluid/epochs").Add(int64(epochs))
	paths, err := reg.WriteDir(dir, "limd.")
	if err != nil {
		return err
	}
	for _, p := range paths {
		fmt.Println("wrote", p)
	}
	return nil
}

// checkOracle is the fluid model's differential oracle: on a single
// bottleneck the weighted max-min allocation is w_i/Σw · C, and the LIMD
// fixed point must oscillate within tol of it.
func checkOracle(final, weights []float64, capacity, tol float64) error {
	sumW := 0.0
	for _, w := range weights {
		sumW += w
	}
	worst := 0.0
	for i, w := range weights {
		want := w / sumW * capacity
		if want <= 0 {
			continue
		}
		resid := math.Abs(final[i]-want) / want
		if resid > worst {
			worst = resid
		}
	}
	if worst > tol {
		return fmt.Errorf("check: worst residual vs max-min oracle %.1f%% exceeds %.1f%%", 100*worst, 100*tol)
	}
	fmt.Printf("check: final rates within %.1f%% of the weighted max-min oracle (tolerance %.0f%%)\n", 100*worst, 100*tol)
	return nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func formatRates(rates []float64) string {
	parts := make([]string, len(rates))
	for i, r := range rates {
		parts[i] = strconv.FormatFloat(r, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}
