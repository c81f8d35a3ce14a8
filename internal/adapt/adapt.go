// Package adapt implements the edge rate-adaptation state machine shared by
// the Corelite and CSFQ source agents in the paper's evaluation (§4):
//
//	"The source agents that we have used to obtain the results for Corelite
//	and CSFQ use similar rate adaptation schemes viz. decrease the sending
//	rate proportional to the number of congestion indication messages
//	received (losses in case of CSFQ) or increase the sending rate by one
//	every epoch. After startup, the agents remain in the slow-start phase
//	(doubling the sending rate every second) until they receive the first
//	congestion notification or until the out-of-profile rate exceeds
//	ss-thresh (set to 32 packets per second) at which point they reduce
//	their rate by half and switch to the linear increase phase."
//
// For Corelite the per-epoch congestion-indication count is m(f), the
// maximum number of marker feedbacks received from any single core router;
// since m(f) is proportional to b_g(f)/w(f), the decrease b_g -= β·m(f) is
// the weighted linear-increase/multiplicative-decrease of paper §2.2.
package adapt

import "time"

// Config parameterizes a Controller. The defaults (via DefaultConfig) are
// the paper's settings.
type Config struct {
	// InitialRate is the rate at flow startup, in packets/second.
	InitialRate float64
	// SSThresh is the slow-start exit threshold in packets/second.
	SSThresh float64
	// Alpha is the linear increase per epoch in packets/second.
	Alpha float64
	// Beta is the decrease per congestion indication in packets/second.
	Beta float64
	// DoubleEvery is the slow-start doubling period.
	DoubleEvery time.Duration
	// MaxRate optionally caps the rate (0 = uncapped).
	MaxRate float64
	// MinRate is the flow's minimum rate contract: congestion
	// indications never throttle the flow below this floor (0 = best
	// effort). The paper's service model pairs weighted fairness with
	// "minimum rate contracts" (§4.1, §6); admission control must ensure
	// the contracted minimums are feasible.
	MinRate float64
}

// DefaultConfig returns the paper's agent parameters: initial rate 1 pkt/s,
// ss-thresh 32 pkt/s, α = β = 1 pkt/s, doubling every second.
func DefaultConfig() Config {
	return Config{
		InitialRate: 1,
		SSThresh:    32,
		Alpha:       1,
		Beta:        1,
		DoubleEvery: time.Second,
	}
}

// Phase identifies the controller's operating regime.
type Phase int

// Controller phases.
const (
	// PhaseSlowStart doubles the rate every DoubleEvery.
	PhaseSlowStart Phase = iota + 1
	// PhaseLinear applies linear increase / indication-proportional
	// decrease each epoch.
	PhaseLinear
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseSlowStart:
		return "slow-start"
	case PhaseLinear:
		return "linear"
	default:
		return "unknown"
	}
}

// PhaseHook observes controller phase transitions (including Start and
// Stop). It is a plain function type so this package stays free of any
// observability dependency; the edge routers wire it to the telemetry layer.
type PhaseHook func(oldPhase, newPhase Phase, oldRate, newRate float64)

// Controller adapts one flow's allowed rate b_g(f). It is driven by the
// owning edge router: Start at flow activation, then OnEpoch once per edge
// epoch with the epoch's congestion-indication count.
type Controller struct {
	cfg        Config
	rate       float64
	phase      Phase
	lastDouble time.Duration

	// Hook, when non-nil, fires after every phase transition.
	Hook PhaseHook
}

// NewController returns a stopped controller; the rate is zero until Start.
func NewController(cfg Config) *Controller {
	if cfg.InitialRate <= 0 {
		cfg.InitialRate = 1
	}
	if cfg.DoubleEvery <= 0 {
		cfg.DoubleEvery = time.Second
	}
	return &Controller{cfg: cfg}
}

// Rate reports the current allowed rate in packets/second.
func (c *Controller) Rate() float64 { return c.rate }

// Phase reports the current phase (zero before Start).
func (c *Controller) Phase() Phase { return c.phase }

// notify fires the phase hook if the phase moved away from (oldPhase,
// oldRate).
func (c *Controller) notify(oldPhase Phase, oldRate float64) {
	if c.Hook != nil && c.phase != oldPhase {
		c.Hook(oldPhase, c.phase, oldRate, c.rate)
	}
}

// Start (re)initializes the controller at time now: initial rate, slow-start
// phase.
func (c *Controller) Start(now time.Duration) {
	oldPhase, oldRate := c.phase, c.rate
	c.rate = c.cfg.InitialRate
	if c.rate < c.cfg.MinRate {
		c.rate = c.cfg.MinRate
	}
	c.phase = PhaseSlowStart
	c.lastDouble = now
	c.notify(oldPhase, oldRate)
}

// Stop zeroes the rate; Start must be called before reuse.
func (c *Controller) Stop() {
	oldPhase, oldRate := c.phase, c.rate
	c.rate = 0
	c.phase = 0
	c.notify(oldPhase, oldRate)
}

// ApplyIndications applies n congestion indications immediately, without
// waiting for the epoch boundary (the low-latency edge variant). In
// slow-start the first indication halves the rate and flips to linear;
// once linear, each indication subtracts β. It returns the new rate.
func (c *Controller) ApplyIndications(n float64) float64 {
	if n <= 0 {
		return c.rate
	}
	oldPhase, oldRate := c.phase, c.rate
	switch c.phase {
	case PhaseSlowStart:
		c.rate /= 2
		c.phase = PhaseLinear
	case PhaseLinear:
		c.rate -= float64(c.cfg.Beta * n)
	default:
		return c.rate
	}
	c.clamp()
	c.notify(oldPhase, oldRate)
	return c.rate
}

// clamp enforces the contract floor and optional cap.
func (c *Controller) clamp() {
	if c.rate < c.cfg.MinRate {
		c.rate = c.cfg.MinRate
	}
	if c.rate < 0 {
		c.rate = 0
	}
	if c.cfg.MaxRate > 0 && c.rate > c.cfg.MaxRate {
		c.rate = c.cfg.MaxRate
	}
}

// TickEpoch advances one epoch when decreases are applied immediately via
// ApplyIndications: it grows the rate only if the epoch saw no feedback.
func (c *Controller) TickEpoch(now time.Duration, hadFeedback bool) float64 {
	if hadFeedback {
		return c.rate
	}
	return c.OnEpoch(now, 0)
}

// OnEpoch advances the controller by one edge epoch ending at now, given
// the number of congestion indications received during the epoch (marker
// feedbacks for Corelite, losses for CSFQ). It returns the new allowed
// rate.
func (c *Controller) OnEpoch(now time.Duration, indications float64) float64 {
	oldPhase, oldRate := c.phase, c.rate
	switch c.phase {
	case PhaseSlowStart:
		if indications > 0 {
			// First congestion notification: halve and go linear.
			c.rate /= 2
			c.phase = PhaseLinear
			break
		}
		if now-c.lastDouble >= c.cfg.DoubleEvery {
			c.rate *= 2
			c.lastDouble = now
			if c.rate > c.cfg.SSThresh {
				// Out-of-profile: reduce by half and switch to linear
				// increase (paper §4).
				c.rate /= 2
				c.phase = PhaseLinear
			}
		}
	case PhaseLinear:
		if indications > 0 {
			c.rate -= float64(c.cfg.Beta * indications)
		} else {
			c.rate += c.cfg.Alpha
		}
	default:
		// Not started; stay at zero.
		return c.rate
	}
	c.clamp()
	c.notify(oldPhase, oldRate)
	return c.rate
}
