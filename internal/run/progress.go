package run

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// ProgressUpdate is one fleet-wide progress observation, aggregated over
// every job in the executing batch. Rates are computed between consecutive
// ticks; cumulative fields sum over all jobs (including finished ones).
type ProgressUpdate struct {
	// Done / Running / Total count jobs: finished (or failed), started but
	// unfinished, and submitted.
	Done, Running, Total int
	// Events is the cumulative processed engine events; EventsPerSec is the
	// wall rate since the previous tick.
	Events       uint64
	EventsPerSec float64
	// FlowSec is the cumulative simulated flow-seconds (the fluid backend's
	// work metric; 0 on packet-only batches); FlowSecPerSec is its wall
	// rate since the previous tick.
	FlowSec       float64
	FlowSecPerSec float64
	// SimSeconds is the total simulated time completed across jobs,
	// SimTarget the batch's total horizon (the sum of job durations).
	SimSeconds float64
	SimTarget  float64
	// ActiveFlows sums the currently active flows over running jobs.
	ActiveFlows int64
	// Elapsed is the wall time since Execute started.
	Elapsed time.Duration
	// ETA estimates the wall time to batch completion from the cumulative
	// simulated-time rate (0 when unknown — e.g. before any job reports).
	ETA time.Duration
}

// String renders the update as one human-readable progress line, the form
// the CLIs print to stderr under -progress:
//
//	progress 2/8 done, 4 running | sim 310.0s (38.8%) at 12.4x | 2.31 Mevents/s | 412 flows | ETA 48s
//
// The flow-seconds rate appears instead of Mevents/s when the batch did
// fluid work (flow-second counters only advance on the flow backend).
func (u ProgressUpdate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "progress %d/%d done", u.Done, u.Total)
	if u.Running > 0 {
		fmt.Fprintf(&b, ", %d running", u.Running)
	}
	fmt.Fprintf(&b, " | sim %.1fs", u.SimSeconds)
	if u.SimTarget > 0 {
		fmt.Fprintf(&b, " (%.1f%%)", 100*u.SimSeconds/u.SimTarget)
	}
	if u.Elapsed > 0 {
		fmt.Fprintf(&b, " at %.1fx", u.SimSeconds/u.Elapsed.Seconds())
	}
	if u.FlowSec > 0 {
		fmt.Fprintf(&b, " | %.3g flow·s/s", u.FlowSecPerSec)
	} else {
		fmt.Fprintf(&b, " | %.2f Mevents/s", u.EventsPerSec/1e6)
	}
	if u.ActiveFlows > 0 {
		fmt.Fprintf(&b, " | %d flows", u.ActiveFlows)
	}
	if u.ETA > 0 {
		fmt.Fprintf(&b, " | ETA %v", u.ETA.Round(time.Second))
	}
	return b.String()
}

// startProgress launches the wall-clock progress reporter: a ticker
// goroutine that aggregates every job's obs.Progress tracker and hands the
// fleet-wide update to the configured callback. The returned stop function
// emits one final update and waits for the goroutine to exit; it must be
// called exactly once.
//
// The trackers are written by worker goroutines (through the engines) and
// read here; obs.Progress is atomic-field by design, so the reporter holds
// no locks and never blocks a simulation.
func (p *Pool) startProgress(jobs []Job, trackers []*obs.Progress) func() {
	start := time.Now()
	totalSim := 0.0
	for i := range jobs {
		totalSim += jobs[i].Scenario.Duration.Seconds()
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(p.progressEvery)
		defer tick.Stop()
		var lastEvents uint64
		var lastFlowSec float64
		lastAt := start
		emit := func(now time.Time) {
			u := ProgressUpdate{Total: len(jobs), Elapsed: now.Sub(start), SimTarget: totalSim}
			for _, tr := range trackers {
				s := tr.Snapshot()
				u.Events += s.Events
				u.FlowSec += s.FlowSec
				u.SimSeconds += s.Sim.Seconds()
				switch {
				case s.Done:
					u.Done++
				case s.Events > 0 || s.Sim > 0:
					u.Running++
					u.ActiveFlows += s.ActiveFlows
				}
			}
			if dt := now.Sub(lastAt).Seconds(); dt > 0 {
				u.EventsPerSec = float64(u.Events-lastEvents) / dt
				u.FlowSecPerSec = (u.FlowSec - lastFlowSec) / dt
			}
			// ETA from the cumulative average rate — steadier than the
			// per-tick rate when workers finish at different times.
			if elapsed := u.Elapsed.Seconds(); elapsed > 0 && u.SimSeconds > 0 {
				if remaining := totalSim - u.SimSeconds; remaining > 0 {
					u.ETA = time.Duration(remaining / (u.SimSeconds / elapsed) * float64(time.Second))
				}
			}
			lastEvents, lastFlowSec, lastAt = u.Events, u.FlowSec, now
			p.onProgress(u)
		}
		for {
			select {
			case <-stop:
				emit(time.Now())
				return
			case now := <-tick.C:
				emit(now)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}
