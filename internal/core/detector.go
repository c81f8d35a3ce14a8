package core

import (
	"math"
	"time"

	"repro/internal/netem"
)

// DetectorKind selects the incipient-congestion estimator that maps queue
// observations to the number of marker feedbacks F_n. The paper (§3.1)
// notes that "the congestion estimation module can be replaced with no
// impact on the rest of the Corelite mechanisms"; this hook makes that
// concrete.
type DetectorKind int

// Detector kinds.
const (
	// DetectorMM1Cubic is the paper's §3.1 estimator: the M/M/1
	// arrival-excess term plus the cubic self-correcting term, driven by
	// the epoch's time-averaged queue length.
	DetectorMM1Cubic DetectorKind = iota + 1
	// DetectorLinear is a DECbit-flavoured estimator (Jain &
	// Ramakrishnan): congestion when the epoch's average queue exceeds
	// the threshold, with feedback growing linearly in the excess.
	DetectorLinear
	// DetectorEWMA is a RED-flavoured estimator (Floyd & Jacobson):
	// an exponentially weighted moving average of the per-epoch queue
	// observations crossed against min/max thresholds, with feedback
	// ramping from zero at min to the link's epoch service rate at max.
	DetectorEWMA
)

// String implements fmt.Stringer.
func (k DetectorKind) String() string {
	switch k {
	case DetectorMM1Cubic:
		return "mm1-cubic"
	case DetectorLinear:
		return "linear"
	case DetectorEWMA:
		return "ewma"
	default:
		return "unknown"
	}
}

// detector turns one link's per-epoch queue measurements into the raw F_n
// demand (before feedback damping). Implementations are per-link and keep
// no per-flow state.
type detector interface {
	// endEpoch consumes the finished epoch's time-averaged queue length
	// and returns the required feedback volume in markers.
	endEpoch(now time.Duration, qavg float64) float64
}

// newDetector builds the configured detector for one link.
func newDetector(cfg RouterConfig, link *netem.Link) detector {
	mu := link.PacketsPerSecond(cfg.PacketSizeBytes) * cfg.Epoch.Seconds()
	switch cfg.Detector {
	case DetectorLinear:
		return &linearDetector{
			thresh: cfg.QThresh,
			// One marker per queued packet of excess keeps the loop gain
			// comparable to the paper's estimator in its operating
			// region.
			gain: cfg.LinearGain,
			beta: cfg.Beta,
		}
	case DetectorEWMA:
		return &ewmaDetector{
			minThresh: cfg.QThresh,
			maxThresh: 3 * cfg.QThresh,
			weight:    cfg.EWMAWeight,
			maxFn:     mu,
			beta:      cfg.Beta,
		}
	default:
		return &mm1CubicDetector{
			mu:      mu,
			qthresh: cfg.QThresh,
			k:       cfg.CorrectionK * (mu / referenceMu),
			beta:    cfg.Beta,
		}
	}
}

// mm1CubicDetector is the paper's §3.1 formula:
//
//	F_n = (1/β)·[ μ·( q/(1+q) − q_t/(1+q_t) ) + k·(q − q_t)³ ]
type mm1CubicDetector struct {
	mu      float64
	qthresh float64
	k       float64
	beta    float64
}

var _ detector = (*mm1CubicDetector)(nil)

func (d *mm1CubicDetector) endEpoch(_ time.Duration, qavg float64) float64 {
	if qavg <= d.qthresh {
		return 0
	}
	term1 := float64(d.mu * (qavg/(1+qavg) - d.qthresh/(1+d.qthresh)))
	term2 := float64(d.k * math.Pow(qavg-d.qthresh, 3))
	fn := (term1 + term2) / d.beta
	if fn < 0 {
		return 0
	}
	return fn
}

// linearDetector requests feedback proportional to the average queue's
// excess over the threshold — the congestion-avoidance philosophy of the
// DECbit scheme, adapted to emit a feedback count instead of setting a
// header bit.
type linearDetector struct {
	thresh float64
	gain   float64
	beta   float64
}

var _ detector = (*linearDetector)(nil)

func (d *linearDetector) endEpoch(_ time.Duration, qavg float64) float64 {
	if qavg <= d.thresh {
		return 0
	}
	return d.gain * (qavg - d.thresh) / d.beta
}

// ewmaDetector smooths the per-epoch averages with an EWMA (RED-style) and
// ramps the feedback linearly between a min and max threshold; above max
// it requests the full epoch service rate.
type ewmaDetector struct {
	minThresh float64
	maxThresh float64
	weight    float64
	maxFn     float64
	beta      float64
	avg       float64
}

var _ detector = (*ewmaDetector)(nil)

func (d *ewmaDetector) endEpoch(_ time.Duration, qavg float64) float64 {
	d.avg = float64((1-d.weight)*d.avg) + float64(d.weight*qavg)
	switch {
	case d.avg <= d.minThresh:
		return 0
	case d.avg >= d.maxThresh:
		return d.maxFn / d.beta
	default:
		frac := (d.avg - d.minThresh) / (d.maxThresh - d.minThresh)
		return frac * d.maxFn / d.beta
	}
}
