package flowsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// This file is the single-bottleneck LIMD recurrence of paper §2.2 — the
// fluid iteration cmd/fluid drives and measures (fairness and efficiency
// error, convergence epoch, the w_i/Σw · C oracle). It lives here so the
// repository has exactly one implementation of the control-loop
// arithmetic: the event-driven engine (flowsim.Run) models the same loop
// through internal/adapt controllers over an arbitrary link graph, while
// RunLIMD is the closed, deterministic form on one bottleneck used for
// convergence analysis. limd_test.go pins its convergence, contract floors
// and validation.

// LIMDConfig parameterizes the single-bottleneck fluid iteration. Zero
// Alpha/Beta/FeedbackK default to the paper's 1/1/0.05.
type LIMDConfig struct {
	// Capacity is the bottleneck capacity (pkt/s).
	Capacity float64
	// Weights holds one weight per flow.
	Weights []float64
	// Initial holds the starting rates (len must match Weights).
	Initial []float64
	// Minimums optionally holds per-flow contract floors (nil = none).
	Minimums []float64
	// Alpha is the per-epoch linear increase (default 1).
	Alpha float64
	// Beta is the per-indication decrease (default 1).
	Beta float64
	// FeedbackK is the feedback intensity k in m_i = k·b_i/w_i
	// (default 0.05).
	FeedbackK float64
	// Threshold is the congestion detection margin: feedback fires when
	// Σb > Capacity − Threshold (default 0).
	Threshold float64
	// Progress, when non-nil, receives live iteration progress (updated at
	// every recorded sample, with epochs mapped to simulated time at the
	// paper's 100 ms per epoch) for a wall-clock reporter goroutine to
	// read. Purely observational: it never changes the trajectory.
	Progress *obs.Progress
}

// LIMDEpoch is the simulated duration one RunLIMD iteration stands for (the
// paper's 100 ms control epoch) — used to map epoch counts onto the
// simulated-time axis for progress reporting and telemetry export.
const LIMDEpoch = 100 * time.Millisecond

// LIMDState is one trajectory snapshot.
type LIMDState struct {
	// Epoch counts iterations from 0.
	Epoch int
	// Rates are the per-flow rates after the epoch.
	Rates []float64
}

// validate normalizes and checks the config.
func (c *LIMDConfig) validate() error {
	if c.Capacity <= 0 {
		return errors.New("flowsim: capacity must be positive")
	}
	if len(c.Weights) == 0 {
		return errors.New("flowsim: no flows")
	}
	if len(c.Initial) != len(c.Weights) {
		return fmt.Errorf("flowsim: %d initial rates for %d weights", len(c.Initial), len(c.Weights))
	}
	if c.Minimums != nil && len(c.Minimums) != len(c.Weights) {
		return fmt.Errorf("flowsim: %d minimums for %d weights", len(c.Minimums), len(c.Weights))
	}
	for i, w := range c.Weights {
		if w <= 0 {
			return fmt.Errorf("flowsim: weight %d is %v", i, w)
		}
		if c.Initial[i] < 0 {
			return fmt.Errorf("flowsim: initial rate %d is negative", i)
		}
	}
	if c.Alpha <= 0 {
		c.Alpha = 1
	}
	if c.Beta <= 0 {
		c.Beta = 1
	}
	if c.FeedbackK <= 0 {
		c.FeedbackK = 0.05
	}
	return nil
}

// RunLIMD iterates the fluid dynamics for the given number of epochs,
// recording every sampleEvery-th state (and always the initial and final
// ones). Per epoch, for flows i = 1..n on one bottleneck of capacity C:
//
//	congested:   Σ b_i > C − Threshold
//	quiet epoch: b_i ← b_i + α
//	congested:   b_i ← max(min_i, b_i − β·k·b_i/w_i)
func RunLIMD(cfg LIMDConfig, epochs, sampleEvery int) ([]LIMDState, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if epochs <= 0 {
		return nil, errors.New("flowsim: epochs must be positive")
	}
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	rates := make([]float64, len(cfg.Initial))
	copy(rates, cfg.Initial)
	cfg.Progress.SetHorizon(time.Duration(epochs) * LIMDEpoch)
	var out []LIMDState
	snapshot := func(e int) {
		s := LIMDState{Epoch: e, Rates: make([]float64, len(rates))}
		copy(s.Rates, rates)
		out = append(out, s)
		cfg.Progress.Update(time.Duration(e)*LIMDEpoch, uint64(e), len(rates))
	}
	snapshot(0)
	for e := 1; e <= epochs; e++ {
		total := 0.0
		for _, r := range rates {
			total += r
		}
		congested := total > cfg.Capacity-cfg.Threshold
		for i := range rates {
			if congested {
				dec := cfg.Beta * cfg.FeedbackK * rates[i] / cfg.Weights[i]
				rates[i] -= dec
				floor := 0.0
				if cfg.Minimums != nil {
					floor = cfg.Minimums[i]
				}
				if rates[i] < floor {
					rates[i] = floor
				}
			} else {
				rates[i] += cfg.Alpha
			}
		}
		if e%sampleEvery == 0 || e == epochs {
			snapshot(e)
		}
	}
	cfg.Progress.MarkDone()
	return out, nil
}
