package sim

// Test-only entry points: the programs drive the scheduler through Run and
// Step alone.

// newScheduler builds a scheduler on a calendar pinned to buckets buckets of
// 1<<shift ns that never re-sizes; tests use small wheels to reach the
// rotation and fast-forward paths quickly.
func newScheduler(shift uint8, buckets int32) *Scheduler {
	return &Scheduler{q: calendarQueue{shift: shift, nbuckets: buckets, pinned: true}}
}

// RunAll executes events until the queue is empty or Halt is called.
func (s *Scheduler) RunAll() error {
	s.halted = false
	for !s.halted {
		if !s.Step() {
			return nil
		}
	}
	return ErrHalted
}
