package flowsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/workload"
)

// denseFeedback is the control epoch's feedback computation as the engine ran
// it before the active-set sweep: zero and re-derive sumDemand/sumMark/linkFn
// over every link from the active bools, then every flow's raw indication
// (0 for inactive and unresponsive flows). It only reads the engine, so the
// test calls it right before an epoch event is stepped and compares afterwards.
func denseFeedback(e *engine) (sumDemand, sumMark, linkFn, ind []float64) {
	nLinks := len(e.m.Links)
	sumDemand = make([]float64, nLinks)
	sumMark = make([]float64, nLinks)
	linkFn = make([]float64, nLinks)
	ind = make([]float64, len(e.m.Flows))
	beta := e.cfg.Adapt.Beta
	if beta <= 0 {
		beta = 1
	}
	if e.cfg.Control == ControlMarker {
		for i, on := range e.active {
			if !on {
				continue
			}
			mr := e.markerRate(i)
			for _, li := range e.m.Flows[i].Links {
				sumDemand[li] += e.demand[i]
				sumMark[li] += mr
			}
		}
		for li := range linkFn {
			excess := sumDemand[li] - e.m.Links[li].Capacity
			if excess > 0 && sumMark[li] > 0 {
				linkFn[li] = excess / beta
			}
		}
	}
	for i, on := range e.active {
		if !on || e.fixed[i] {
			continue
		}
		switch e.cfg.Control {
		case ControlMarker:
			if mr := e.markerRate(i); mr > 0 {
				for _, li := range e.m.Flows[i].Links {
					if linkFn[li] <= 0 {
						continue
					}
					if share := linkFn[li] * mr / sumMark[li]; share > ind[i] {
						ind[i] = share
					}
				}
			}
		case ControlLoss:
			if excess := e.demand[i] - e.cur[i]; excess > 0 {
				ind[i] = excess * e.cfg.Epoch.Seconds()
			}
		}
	}
	return sumDemand, sumMark, linkFn, ind
}

// churnConfig is a seeded churn run over a 12-link chain: 299 flows with one
// to three activity windows each (arrivals, departures, re-arrivals), plus
// one fixed-demand blaster, and a side link crossed only by flows 0..2, whose
// windows leave it empty over [3s, 5s) and refill it afterwards.
func churnConfig(t testing.TB, ctl Control, solver solverMode) Config {
	const horizon = 12 * time.Second
	rng := rand.New(rand.NewSource(42))
	m := NewModel()
	var chain []int
	for i := 0; i < 12; i++ {
		li, err := m.AddLink("C"+string(rune('a'+i)), 40+float64(25*(i%3)))
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, li)
	}
	side, err := m.AddLink("side", 12)
	if err != nil {
		t.Fatal(err)
	}
	var scheds []workload.Schedule
	add := func(f Flow, s workload.Schedule) {
		f.Index = len(m.Flows) + 1
		if err := m.AddFlow(f); err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, s)
	}
	for i := 0; i < 3; i++ {
		add(Flow{Weight: float64(1 + i), Links: []int{chain[0], side}}, workload.Schedule{
			{Start: time.Duration(i) * 150 * time.Millisecond, Stop: 3 * time.Second},
			{Start: 5*time.Second + time.Duration(i)*70*time.Millisecond, Stop: 9 * time.Second},
		})
	}
	add(Flow{Weight: 1, FixedDemand: 15, Links: chain[4:7]}, workload.Schedule{
		{Start: time.Second, Stop: 4 * time.Second}, {Start: 6 * time.Second},
	})
	for len(m.Flows) < 300 {
		span := 1 + rng.Intn(4)
		start := rng.Intn(len(chain) - span + 1)
		f := Flow{Weight: float64(1 + rng.Intn(4)), Links: chain[start : start+span]}
		if rng.Intn(5) == 0 {
			f.MinRate = 0.5
		}
		var s workload.Schedule
		at := time.Duration(rng.Intn(4000)) * time.Millisecond
		for w := 1 + rng.Intn(3); w > 0 && at < horizon; w-- {
			stop := at + time.Duration(200+rng.Intn(3000))*time.Millisecond
			s = append(s, workload.Interval{Start: at, Stop: stop})
			at = stop + time.Duration(100+rng.Intn(2000))*time.Millisecond
		}
		add(f, s)
	}
	return Config{Model: m, Horizon: horizon, Control: ctl, solver: solver, Schedules: scheds}
}

func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestEpochMatchesDenseSweep steps a churn run event by event and holds every
// control epoch to the dense recomputation, bit for bit: the per-link sums and
// feedback volumes under the marker control, and under both controls the
// per-flow indication accumulators — which move only for the live responsive
// flows, so they also pin which flows the active-set sweep visited.
func TestEpochMatchesDenseSweep(t *testing.T) {
	for _, ctl := range []Control{ControlMarker, ControlLoss} {
		for _, solver := range []solverMode{solverFull, solverIncremental} {
			e, err := newEngine(churnConfig(t, ctl, solver))
			if err != nil {
				t.Fatal(err)
			}
			e.schedule()
			epochs, sideEmpty, sideBusy, cleared := 0, 0, 0, 0
			side := len(e.m.Links) - 1
			prevFn := make([]float64, len(e.m.Links))
			for len(e.events) > 0 {
				if e.events[0].prio != prioEpoch {
					e.step()
					continue
				}
				for i, on := range e.active {
					if bit := e.liveBits[i>>6]>>(uint(i)&63)&1 == 1; bit != on {
						t.Fatalf("%v/%v: flow %d active=%v but live bit=%v", ctl, solver, i, on, bit)
					}
				}
				sumDemand, sumMark, linkFn, ind := denseFeedback(e)
				wantFb := append([]float64(nil), e.fb...)
				for i := range wantFb {
					if wantFb[i] += ind[i]; wantFb[i] >= 1 {
						wantFb[i] = 0
					}
				}
				at := e.events[0].at
				e.step()
				epochs++
				if i, ok := sameBits(e.fb, wantFb); !ok {
					t.Fatalf("%v/%v epoch at %v: fb[%d] = %v, dense sweep gives %v", ctl, solver, at, i, e.fb[i], wantFb[i])
				}
				if ctl != ControlMarker {
					continue
				}
				for name, pair := range map[string][2][]float64{
					"sumDemand": {e.sumDemand, sumDemand},
					"sumMark":   {e.sumMark, sumMark},
					"linkFn":    {e.linkFn, linkFn},
				} {
					if li, ok := sameBits(pair[0], pair[1]); !ok {
						t.Fatalf("%v/%v epoch at %v: %s[%d] = %v, dense sweep gives %v",
							ctl, solver, at, name, li, pair[0][li], pair[1][li])
					}
				}
				if sumDemand[side] == 0 {
					sideEmpty++
				} else {
					sideBusy++
				}
				for li, fn := range linkFn {
					if fn == 0 && prevFn[li] > 0 {
						cleared++
					}
				}
				prevFn = linkFn
			}
			if epochs != 120 {
				t.Errorf("%v/%v: stepped %d epochs, want 120", ctl, solver, epochs)
			}
			if ctl == ControlMarker && (sideEmpty < 10 || sideBusy < 10 || cleared < 10) {
				t.Errorf("%v/%v: side link empty in %d epochs, busy in %d, %d congested links cleared; the run must cover all three",
					ctl, solver, sideEmpty, sideBusy, cleared)
			}
		}
	}
}

// sparseEngine returns a 100k-flow engine on a 64-link ring of 6-link paths,
// stepped to its first control epoch with one flow in fifty live — the
// heavy-tailed shape of flow_fattree100k, where most flows are short and few
// overlap.
func sparseEngine(t testing.TB) (*engine, time.Duration) {
	const flows, links, span = 100000, 64, 6
	m := NewModel()
	for i := 0; i < links; i++ {
		if _, err := m.AddLink("L"+string(rune('0'+i/10))+string(rune('0'+i%10)), 4000); err != nil {
			t.Fatal(err)
		}
	}
	scheds := make([]workload.Schedule, flows)
	for i := 0; i < flows; i++ {
		path := make([]int, span)
		for j := range path {
			path[j] = (i*7 + j) % links
		}
		if err := m.AddFlow(Flow{Index: i + 1, Weight: float64(1 + i%4), Links: path}); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			scheds[i] = workload.Schedule{{Start: 0}}
		} else {
			scheds[i] = workload.Schedule{{Start: time.Hour}}
		}
	}
	e, err := newEngine(Config{Model: m, Horizon: time.Minute, Control: ControlMarker, Schedules: scheds})
	if err != nil {
		t.Fatal(err)
	}
	e.schedule()
	for e.events[0].prio != prioEpoch {
		e.step()
	}
	if e.nActive != flows/50 {
		t.Fatalf("%d flows live, want %d", e.nActive, flows/50)
	}
	return e, e.events[0].at
}

// TestEpochAllocatesNothing: every structure the sweep appends to (the
// touched-link list, the change batch) is sized for the whole model up front.
func TestEpochAllocatesNothing(t *testing.T) {
	e, now := sparseEngine(t)
	if n := testing.AllocsPerRun(20, func() { e.epoch(now) }); n != 0 {
		t.Errorf("engine.epoch allocates %v objects per call in steady state, want 0", n)
	}
}

// BenchmarkEpochSparse is one control epoch over 100k flows with 2% live:
// the cost must follow the 2000 live flows, not the 100k.
func BenchmarkEpochSparse(b *testing.B) {
	e, now := sparseEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.epoch(now)
	}
}
