package flowsim

import (
	"strconv"

	"repro/internal/obs"
)

// attachObs registers the fluid engine's instruments on cfg.Obs: per-flow
// allowed-rate and phase gauges, per-link fair-share (alpha) and
// feedback-volume (fn) gauges, epoch/feedback counters, the incremental
// solver's tier counters (fluid/solve/tier/*, added once per solve), and
// the wall-clock water-filling solve-time histogram — the fluid analogues
// of the packet network's instruments, under the same canonical name
// prefixes so Summary and the exporters aggregate both backends
// identically.
//
// Everything is wall-clock-side of the zero-perturbation contract: gauges
// are function-backed (read only when sampled), sampling happens at existing
// epoch boundaries — the engine schedules no extra events and performs no
// extra float arithmetic on model state — and the solve histogram measures
// the engine's own wall time, so a run's Output is byte-identical with the
// registry attached or not.
func (e *engine) attachObs() {
	reg := e.cfg.Obs
	if reg == nil {
		return
	}
	e.solveHistFull = reg.Histogram(obs.HistSolveFull, "s")
	if e.incremental {
		e.solveHistIncr = reg.Histogram(obs.HistSolveIncremental, "s")
		for k, name := range tierNames {
			e.ctrTier[k] = reg.Counter("fluid/solve/tier/" + name)
		}
	}
	e.ctrTouched = reg.Counter(obs.CtrSolveTouched)
	e.ctrEpochs = reg.Counter("fluid/epochs")
	e.ctrCong = reg.Counter("core/fluid" + obs.SuffixCongestionEpochs)
	e.ctrFeedback = reg.Counter("core/fluid" + obs.SuffixFeedbackSent)

	// Gauge sampling cadence in epochs: ObsSample < 0 disables the series,
	// 0 samples every epoch (the packet default is the epoch length too),
	// larger intervals round to the nearest whole number of epochs.
	switch every := e.cfg.ObsSample; {
	case every < 0:
		e.obsEvery = 0
	case every == 0:
		e.obsEvery = 1
	default:
		k := int((every + e.cfg.Epoch/2) / e.cfg.Epoch)
		if k < 1 {
			k = 1
		}
		e.obsEvery = k
	}

	for i := range e.m.Flows {
		i := i
		idx := strconv.Itoa(e.m.Flows[i].Index)
		reg.GaugeFunc(obs.PrefixRate+idx, func() float64 {
			if !e.active[i] {
				return 0
			}
			return e.demand[i]
		})
		reg.GaugeFunc(obs.PrefixPhase+idx, func() float64 {
			return float64(e.ctrl[i].Phase())
		})
	}
	for li := range e.m.Links {
		li := li
		name := e.m.Links[li].Name
		reg.GaugeFunc(obs.PrefixAlpha+name, func() float64 { return e.linkAlpha(li) })
		if e.cfg.Control == ControlMarker {
			reg.GaugeFunc(obs.PrefixFn+name, func() float64 { return e.linkFn[li] })
		}
	}
}

// linkAlpha reads link li's current normalized fair share: the largest
// achieved rate per unit weight among the flows crossing it — the water
// level for saturated links, and the fluid analogue of CSFQ's alpha.
func (e *engine) linkAlpha(li int) float64 {
	level := 0.0
	for _, fi32 := range e.alloc.flowsOn(li) {
		fi := int(fi32)
		if !e.active[fi] {
			continue
		}
		if w := e.m.Flows[fi].Weight; w > 0 {
			if s := e.cur[fi] / w; s > level {
				level = s
			}
		}
	}
	return level
}
