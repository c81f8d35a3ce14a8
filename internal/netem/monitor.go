package netem

import "time"

// QueueMonitor computes the exact time-weighted average queue length over an
// observation epoch. Corelite core routers read (and reset) it once per
// congestion epoch to obtain q_avg (paper §3.1).
type QueueMonitor struct {
	epochStart time.Duration
	lastChange time.Duration
	length     int
	integral   float64 // ∫ length dt since epochStart, in length·seconds
}

// NewQueueMonitor returns a monitor whose first epoch starts at now.
func NewQueueMonitor(now time.Duration) *QueueMonitor {
	return &QueueMonitor{epochStart: now, lastChange: now}
}

// Observe records that the queue length changed to length at time now.
// Calls must be monotone in now.
func (m *QueueMonitor) Observe(now time.Duration, length int) {
	m.integral += float64(float64(m.length) * (now - m.lastChange).Seconds())
	m.lastChange = now
	m.length = length
}

// Length reports the most recently observed instantaneous queue length.
func (m *QueueMonitor) Length() int { return m.length }

// Average reports the time-weighted mean queue length from the epoch start
// up to now, without resetting the epoch.
func (m *QueueMonitor) Average(now time.Duration) float64 {
	elapsed := (now - m.epochStart).Seconds()
	if elapsed <= 0 {
		return float64(m.length)
	}
	integral := m.integral + float64(float64(m.length)*(now-m.lastChange).Seconds())
	return integral / elapsed
}

// EndEpoch reports the time-weighted mean length over the finished epoch and
// starts a new epoch at now.
func (m *QueueMonitor) EndEpoch(now time.Duration) float64 {
	avg := m.Average(now)
	m.epochStart = now
	m.lastChange = now
	m.integral = 0
	return avg
}
