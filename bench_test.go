// Benchmarks that regenerate every figure of the paper's evaluation
// section (§4, Figures 3–10) plus ablations of the design choices called
// out in DESIGN.md. Each benchmark runs the full packet-level simulation
// and reports, besides ns/op, the domain metrics that matter for the
// reproduction: total packet losses, Jain's fairness index over normalized
// allowed rates at the end of the run, and the worst per-flow convergence
// time where the paper makes convergence claims.
//
// Run with:
//
//	go test -bench=. -benchmem
package corelite_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	corelite "repro"
	"repro/internal/baseline"
)

// reportFairness attaches the domain metrics to a benchmark result. The
// Jain index is taken at the latest probe time with active flows (some
// scenarios end with every flow stopped).
func reportFairness(b *testing.B, sc corelite.Scenario, res *corelite.Result) {
	b.Helper()
	b.ReportMetric(float64(res.TotalLosses), "losses/run")
	jain := 0.0
	for _, frac := range []float64{1, 0.9, 0.75, 0.5} {
		at := time.Duration(float64(res.Duration)*frac) - res.SampleWindow
		if j := res.JainIndexAt(at, sc); j > 0 {
			jain = j
			break
		}
	}
	b.ReportMetric(jain, "jain")
}

// reportConvergence adds the worst per-flow time to settle within tol of
// the full-set expectation.
func reportConvergence(b *testing.B, res *corelite.Result, tol float64) {
	b.Helper()
	var worst time.Duration
	converged := true
	for _, f := range res.Flows {
		at, ok := corelite.ConvergenceTime(f.AllowedRate, res.ExpectedFullSet[f.Index], tol)
		if !ok {
			converged = false
			continue
		}
		if at > worst {
			worst = at
		}
	}
	b.ReportMetric(worst.Seconds(), "conv_s")
	if converged {
		b.ReportMetric(1, "all_converged")
	} else {
		b.ReportMetric(0, "all_converged")
	}
}

// runScenario executes b.N seed replicas of the scenario through the run
// pool (single worker, so per-figure timings stay comparable across
// releases), reports the event throughput accumulated over every iteration,
// and returns the last result.
func runScenario(b *testing.B, sc corelite.Scenario) *corelite.Result {
	b.Helper()
	var res *corelite.Result
	var events uint64
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(i + 1)
		results, err := corelite.NewPool(corelite.PoolConfig{Workers: 1}).Execute(context.Background(),
			[]corelite.Job{{Name: sc.Name, Scenario: sc}})
		if err != nil {
			b.Fatalf("run %s: %v", sc.Name, err)
		}
		if results[0].Err != nil {
			b.Fatalf("run %s: %v", sc.Name, results[0].Err)
		}
		res = results[0].Output
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	return res
}

// benchFigureBatch regenerates the full Figures 3-10 batch on the given
// worker count; comparing the Serial and Parallel variants measures the
// pool's wall-clock speedup on multicore hardware.
func benchFigureBatch(b *testing.B, workers int) {
	b.Helper()
	var events uint64
	for i := 0; i < b.N; i++ {
		results, err := corelite.NewPool(corelite.PoolConfig{Workers: workers}).Execute(context.Background(),
			corelite.JobsFromScenarios(corelite.AllFigures(1)...))
		if err != nil {
			b.Fatalf("batch: %v", err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatalf("job %q: %v", r.Job.Name, r.Err)
			}
			events += r.Stats.Events
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkBatchFiguresSerial runs the whole evaluation batch on one
// worker — the pre-pool baseline.
func BenchmarkBatchFiguresSerial(b *testing.B) { benchFigureBatch(b, 1) }

// BenchmarkBatchFiguresParallel runs it on GOMAXPROCS workers.
func BenchmarkBatchFiguresParallel(b *testing.B) { benchFigureBatch(b, runtime.GOMAXPROCS(0)) }

// BenchmarkFig3CoreliteDynamicsRate regenerates Figure 3: 20 flows, three
// bottlenecks, flows 1/9/10/11/16 active only in [250s, 500s); the series
// of interest is the per-flow instantaneous allowed rate.
func BenchmarkFig3CoreliteDynamicsRate(b *testing.B) {
	sc := corelite.Fig3Scenario(1)
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
	// Phase-2 fairness (all 20 flows): Jain over normalized rates at
	// t=450s.
	b.ReportMetric(res.JainIndexAt(450*time.Second, sc), "jain_phase2")
}

// BenchmarkFig4CoreliteCumulativeService regenerates Figure 4: the same
// §4.1 run, reporting the cumulative-service spread among the weight-2
// flows that traverse 1, 2 and 3 congested links — the paper's claim is
// that equal-weight flows get equal total service regardless of RTT and
// hop count (max-min, not proportional fairness).
func BenchmarkFig4CoreliteCumulativeService(b *testing.B) {
	sc := corelite.Fig3Scenario(1)
	sc.Name = "fig4-corelite-cumulative"
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
	peers := []int{2, 6, 13, 20} // weight-2 flows on 1-, 2-, 2- and 1-bottleneck paths
	minTotal, maxTotal := 1e18, 0.0
	for _, idx := range peers {
		v, _ := res.Flow(idx).Cumulative.ValueAt(750 * time.Second)
		if v < minTotal {
			minTotal = v
		}
		if v > maxTotal {
			maxTotal = v
		}
	}
	if minTotal > 0 {
		b.ReportMetric(maxTotal/minTotal, "service_spread")
	}
}

// BenchmarkFig5CoreliteStartup regenerates Figure 5: 10 flows with weights
// ⌈i/2⌉ starting simultaneously under Corelite.
func BenchmarkFig5CoreliteStartup(b *testing.B) {
	sc := corelite.Fig5Scenario(1)
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
	reportConvergence(b, res, 0.25)
}

// BenchmarkFig6CSFQStartup regenerates Figure 6: the same startup scenario
// under weighted CSFQ. Compare conv_s and losses/run against Figure 5 —
// the paper reports Corelite converging more than 30 seconds faster.
func BenchmarkFig6CSFQStartup(b *testing.B) {
	sc := corelite.Fig6Scenario(1)
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
	reportConvergence(b, res, 0.25)
}

// BenchmarkFig7CoreliteStaggered regenerates Figure 7: 20 flows entering
// one second apart under Corelite.
func BenchmarkFig7CoreliteStaggered(b *testing.B) {
	sc := corelite.Fig7Scenario(1)
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// BenchmarkFig8CSFQStaggered regenerates Figure 8: the staggered-entry
// scenario under CSFQ.
func BenchmarkFig8CSFQStaggered(b *testing.B) {
	sc := corelite.Fig8Scenario(1)
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// BenchmarkFig9CoreliteChurn regenerates Figure 9: flows start 1s apart,
// live 60s, stop 1s apart and restart 5s later (simultaneous arrivals and
// departures between t=65s and 80s) under Corelite.
func BenchmarkFig9CoreliteChurn(b *testing.B) {
	sc := corelite.Fig9Scenario(1)
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// BenchmarkFig10CSFQChurn regenerates Figure 10: the churn scenario under
// CSFQ; the paper highlights how short-lived high-weight flows suffer.
func BenchmarkFig10CSFQChurn(b *testing.B) {
	sc := corelite.Fig10Scenario(1)
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// BenchmarkFigFairnessAtScale regenerates the first at-scale figure: 40
// flows through a generated k=8 fat-tree under Corelite, mice/elephants
// with 10% unresponsive sources. This is the heaviest packet-level figure
// and the throughput anchor for the scenario-generation subsystem.
func BenchmarkFigFairnessAtScale(b *testing.B) {
	sc := corelite.FairnessAtScaleScenario(corelite.SchemeCorelite, 1)
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// BenchmarkFigChurnTail regenerates the churn reconvergence-tail figure:
// 16 flows on a k=4 fat-tree with anti-phase heavy flows and a flash
// crowd, measured over a 100s settle tail.
func BenchmarkFigChurnTail(b *testing.B) {
	sc := corelite.ChurnTailScenario(corelite.SchemeCorelite, 1)
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// --- Ablations (DESIGN.md §4) ---

// benchSelector runs the Figure 5 scenario with the chosen marker
// selector.
func benchSelector(b *testing.B, kind corelite.SelectorKind) {
	sc := corelite.Fig5Scenario(1)
	cfg := corelite.DefaultRouterConfig()
	cfg.Selector = kind
	sc.RouterConfig = cfg
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
	reportConvergence(b, res, 0.25)
}

// BenchmarkAblationSelectorStateless measures the §3.2 cache-less
// selective feedback (the default).
func BenchmarkAblationSelectorStateless(b *testing.B) {
	benchSelector(b, corelite.SelectorStateless)
}

// BenchmarkAblationSelectorCache measures the §2.2 marker-cache feedback.
func BenchmarkAblationSelectorCache(b *testing.B) {
	benchSelector(b, corelite.SelectorCache)
}

// BenchmarkAblationKTermOn / Off probe the cubic self-correcting term of
// the F_n formula (§3.1): without it the feedback saturates at the M/M/1
// estimate and queues overflow under sustained pressure.
func BenchmarkAblationKTermOn(b *testing.B) {
	sc := corelite.Fig5Scenario(1)
	sc.RouterConfig = corelite.DefaultRouterConfig()
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

func BenchmarkAblationKTermOff(b *testing.B) {
	sc := corelite.Fig5Scenario(1)
	sc.RouterConfig = corelite.DefaultRouterConfig()
	sc.RouterConfig.CorrectionK = -1 // negative: no cubic term
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// BenchmarkAblationDampingOn / Off probe the outstanding-feedback discount
// (an implementation refinement documented in DESIGN.md §3): without it
// the router re-requests the full throttle every epoch during the
// reaction lag, deepening oscillation.
func BenchmarkAblationDampingOn(b *testing.B) {
	sc := corelite.Fig5Scenario(1)
	sc.RouterConfig = corelite.DefaultRouterConfig()
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

func BenchmarkAblationDampingOff(b *testing.B) {
	sc := corelite.Fig5Scenario(1)
	sc.RouterConfig = corelite.DefaultRouterConfig()
	sc.RouterConfig.DampingGamma = -1 // negative: no discount
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// benchEpoch runs Figure 5 with a given congestion/adaptation epoch (the
// paper claims low sensitivity to the epoch size, §4.4).
func benchEpoch(b *testing.B, epoch time.Duration) {
	sc := corelite.Fig5Scenario(1)
	edge := corelite.DefaultEdgeConfig()
	edge.Epoch = epoch
	router := corelite.DefaultRouterConfig()
	router.Epoch = epoch
	sc.EdgeConfig = edge
	sc.RouterConfig = router
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
	reportConvergence(b, res, 0.25)
}

func BenchmarkAblationEpoch50ms(b *testing.B)  { benchEpoch(b, 50*time.Millisecond) }
func BenchmarkAblationEpoch100ms(b *testing.B) { benchEpoch(b, 100*time.Millisecond) }
func BenchmarkAblationEpoch200ms(b *testing.B) { benchEpoch(b, 200*time.Millisecond) }

// benchK1 runs Figure 5 with a given marking constant K1 (markers every
// K1·w packets — larger K1 = fewer markers = coarser feedback).
func benchK1(b *testing.B, k1 float64) {
	sc := corelite.Fig5Scenario(1)
	edge := corelite.DefaultEdgeConfig()
	edge.K1 = k1
	sc.EdgeConfig = edge
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

func BenchmarkAblationK1x1(b *testing.B) { benchK1(b, 1) }
func BenchmarkAblationK1x2(b *testing.B) { benchK1(b, 2) }
func BenchmarkAblationK1x4(b *testing.B) { benchK1(b, 4) }

// BenchmarkAblationAQMDropTail / RED probe the paper's claim that
// Corelite's feedback, being driven by the marker stream rather than the
// queue discipline, is "independent of the scheduling discipline at the
// core router" (§2.2).
func BenchmarkAblationAQMDropTail(b *testing.B) {
	sc := corelite.Fig5Scenario(1)
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

func BenchmarkAblationAQMRED(b *testing.B) {
	sc := corelite.Fig5Scenario(1)
	rng := corelite.NewRNG(99)
	// RED thresholds must sit above Corelite's q_thresh (8) or RED's
	// early drops preempt the marker feedback loop: incipient detection
	// has to see the queue before the AQM clips it.
	cfg := baseline.REDConfig{
		Capacity:        40,
		MinThresh:       12,
		MaxThresh:       36,
		MaxP:            0.02,
		Weight:          0.002,
		MeanServiceTime: 2 * time.Millisecond,
	}
	sc.TopologyOptions.CoreQueue = func(link string, now func() time.Duration) corelite.Discipline {
		return baseline.NewRED(cfg, now, rng.Stream(link))
	}
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// benchDetector runs Figure 5 with a given congestion-estimation module —
// the paper claims the estimator is replaceable without affecting the rest
// of the mechanisms (§3.1).
func benchDetector(b *testing.B, kind corelite.DetectorKind) {
	sc := corelite.Fig5Scenario(1)
	cfg := corelite.DefaultRouterConfig()
	cfg.Detector = kind
	sc.RouterConfig = cfg
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
	reportConvergence(b, res, 0.25)
}

func BenchmarkAblationDetectorMM1Cubic(b *testing.B) { benchDetector(b, corelite.DetectorMM1Cubic) }
func BenchmarkAblationDetectorLinear(b *testing.B)   { benchDetector(b, corelite.DetectorLinear) }
func BenchmarkAblationDetectorEWMA(b *testing.B)     { benchDetector(b, corelite.DetectorEWMA) }

// BenchmarkAblationDeferredDecrease probes the edge variant that batches
// feedback to the epoch boundary (the paper's literal description) against
// the default immediate application.
func BenchmarkAblationDeferredDecrease(b *testing.B) {
	sc := corelite.Fig5Scenario(1)
	edge := corelite.DefaultEdgeConfig()
	edge.DeferDecrease = true
	sc.EdgeConfig = edge
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

func BenchmarkAblationImmediateDecrease(b *testing.B) {
	sc := corelite.Fig5Scenario(1)
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// BenchmarkSensitivityBurstyCross probes the paper's sensitivity
// discussion (§2.2/§3.1): Corelite under unresponsive bursty on/off cross
// traffic occupying ~20% of every core link. Fairness among the adaptive
// flows should survive (jain stays high).
func BenchmarkSensitivityBurstyCross(b *testing.B) {
	sc := corelite.Fig5Scenario(1)
	for _, link := range []string{"C1->C2", "C2->C3", "C3->C4"} {
		sc.Cross = append(sc.Cross, corelite.CrossTraffic{
			Link:   link,
			Rate:   200,
			MeanOn: 500 * time.Millisecond, MeanOff: 500 * time.Millisecond,
		})
	}
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// BenchmarkSensitivityNoCross is the paired baseline for the bursty-cross
// sensitivity bench.
func BenchmarkSensitivityNoCross(b *testing.B) {
	sc := corelite.Fig5Scenario(1)
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// BenchmarkExtensionTCPHosts measures the TCP-over-Corelite extension: two
// TCP end hosts behind weighted shapers on the dumbbell.
func BenchmarkExtensionTCPHosts(b *testing.B) {
	sc := corelite.Scenario{
		Name:     "bench-tcp-hosts",
		Scheme:   corelite.SchemeCorelite,
		Duration: 60 * time.Second,
		NumFlows: 2,
		Weights:  map[int]float64{1: 1, 2: 2},
		Dumbbell: true,
		Transports: map[int]corelite.Transport{
			1: corelite.TransportTCP,
			2: corelite.TransportTCP,
		},
	}
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
}

// BenchmarkExtensionMinRateContracts measures the minimum-rate-contract
// extension: a contracted flow against best-effort competition.
func BenchmarkExtensionMinRateContracts(b *testing.B) {
	sc := corelite.Scenario{
		Name:     "bench-min-rate",
		Scheme:   corelite.SchemeCorelite,
		Duration: 60 * time.Second,
		NumFlows: 3,
		Weights:  map[int]float64{1: 1, 2: 1, 3: 1},
		MinRates: map[int]float64{1: 300},
		Dumbbell: true,
	}
	res := runScenario(b, sc)
	reportFairness(b, sc, res)
	// Contract compliance: lowest observed rate of the contracted flow.
	low := 1e18
	for _, s := range res.Flow(1).AllowedRate {
		if s.Value > 0 && s.Value < low {
			low = s.Value
		}
	}
	b.ReportMetric(low, "contract_floor")
}

// benchObs runs a shortened Figure 5 startup with or without a telemetry
// registry attached. The pair quantifies the cost of the instrumentation
// layer: Off is the baseline, Attached keeps every counter, control event,
// the event-loop profiler and the latency histograms live but disables
// time-series sampling (negative ObsSample), so the delta is exactly the
// per-packet/per-epoch instrument overhead the hot path pays when
// observability is wired in. The contract is under 5% of Mevents/s.
func benchObs(b *testing.B, attach bool) {
	b.Helper()
	sc := corelite.Fig5Scenario(1)
	sc.Duration = 20 * time.Second
	var events uint64
	for i := 0; i < b.N; i++ {
		run := sc
		run.Seed = int64(i + 1)
		if attach {
			run.Obs = corelite.NewObsRegistry()
			run.ObsSample = -1
		}
		res, err := corelite.Run(run)
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkObsDisabled is the no-registry baseline: instruments are nil and
// the forwarding path pays only nil checks.
func BenchmarkObsDisabled(b *testing.B) { benchObs(b, false) }

// BenchmarkObsAttached runs with counters and control events recording
// (sampling off), for comparison against BenchmarkObsDisabled.
func BenchmarkObsAttached(b *testing.B) { benchObs(b, true) }
