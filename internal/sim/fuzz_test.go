package sim

import "testing"

// fuzzSeeds are FuzzScheduler's in-code seeds (the differential suite replays
// them too): the original four-op programs plus one per later op.
var fuzzSeeds = [][]byte{
	{0, 10, 0, 10, 1, 0, 3, 0, 0, 5, 2, 1, 3, 0},
	{0, 0, 0, 0, 0, 0},
	{1, 1, 1, 1, 2, 0, 2, 0},
	{0, 255, 3, 3, 3, 3},
	// Cancel-heavy: more cancels than schedules, interleaved with steps, so
	// stale entries surface at the front, mid-bucket and in overflow.
	{0, 3, 0, 7, 0, 2, 0, 9, 2, 0, 2, 1, 2, 2, 0, 1, 2, 3, 3, 0, 0, 4, 2, 0, 2, 5, 3, 0, 2, 6, 3, 0, 3, 0},
	// Same-timestamp burst: a long FIFO tie train with a mid-train step and
	// a cancel inside the tie group.
	{0, 5, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 3, 0, 1, 0, 1, 0, 2, 3, 3, 0, 3, 0},
	// Re-arm from inside a handle: tickers with zero and non-zero periods
	// interleaved with plain handles and steps.
	{4, 3, 0, 4, 4, 5, 3, 0, 3, 0, 0, 1, 4, 255, 3, 0, 7, 9, 3, 0},
	// Cancel a re-armed handle: before its first firing, between re-arms,
	// and after its last one.
	{4, 2, 4, 7, 5, 0, 3, 0, 3, 0, 5, 1, 4, 1, 3, 0, 3, 0, 3, 0, 3, 0, 5, 2, 5, 0},
	// Registered-handler posts (every third re-arms once) tied with handles
	// and drained through a horizon run.
	{6, 4, 6, 4, 0, 4, 6, 0, 1, 0, 6, 200, 7, 3, 6, 1, 2, 0, 7, 255},
}

// FuzzScheduler interprets the fuzz input as a little op program — schedule
// at an offset, schedule a same-time tie, cancel, step, a handle that
// re-arms itself, cancel such a handle, a registered-handler post, run to a
// horizon — and runs it at every diffScales stretch, so its delays cross
// calendar buckets and rotations, on the scheduler (both wheel geometries)
// and on the sorted-list reference. The scheduler must observe exactly what
// the reference observes — the firing sequence with Now() at each firing,
// and Now()/Len() after every op — with virtual time never running
// backwards, Processed() counting exactly the events that ran, and an empty
// queue at the end.
func FuzzScheduler(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, program []byte) {
		for _, scale := range diffScales {
			diffProgram(t, program, scale)
		}
	})
}
