package serve

import (
	"math"
	"testing"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/hw/ble"
	"repro/internal/sim"
)

// tap records, while open, what a run consumed per routed window: the
// difficulty rating, and the model and HR of the estimate.
type tap struct {
	open   bool
	diffs  []int
	models []string
	hrs    []float64
}

type tapRater struct {
	inner core.DifficultyRater
	tap   *tap
}

func (r tapRater) DifficultyID(w *dalia.Window) int {
	d := r.inner.DifficultyID(w)
	if r.tap.open {
		r.tap.diffs = append(r.tap.diffs, d)
	}
	return d
}

type tapEst struct {
	biasEst
	tap *tap
}

func (e *tapEst) EstimateHR(w *dalia.Window) float64 {
	hr := e.biasEst.EstimateHR(w)
	if e.tap.open {
		e.tap.models = append(e.tap.models, e.name)
		e.tap.hrs = append(e.tap.hrs, hr)
	}
	return hr
}

// TestSessionMatchesSim is the differential test between the streaming
// engine and the offline simulator: one lockstep session fed one window
// per period must route every window exactly as sim.Run does on the same
// windows, constraint, link trace, fault scenario and (session-forked)
// fault seed. The period is long enough that the watch never skips a
// window for a busy MCU, which serve does not model.
func TestSessionMatchesSim(t *testing.T) {
	_, _, ws := fixture(t)
	tp := &tap{}
	eng := fixtureEngine(tapRater{fixtureOnce.cls, tp},
		&tapEst{biasEst{name: "cheap", ops: 3_000, bias: 8}, tp},
		&tapEst{biasEst{name: "best", ops: 12_000_000, bias: 2}, tp})
	gate := servePolicy(t)
	gate.GateBPM = 40
	gate.Smooth = false // per-window HRs are then the raw estimates on both sides
	for _, sc := range []faults.Scenario{faults.None(), faults.Commute(), faults.WorstCase()} {
		for _, pol := range []*belief.Policy{nil, gate} {
			name := sc.Name
			if pol != nil {
				name += "+gate"
			}
			t.Run(name, func(t *testing.T) { differential(t, eng, tp, ws, sc, pol) })
		}
	}
}

func differential(t *testing.T, eng *core.Engine, tp *tap, ws []dalia.Window, sc faults.Scenario, pol *belief.Policy) {
	const (
		id     = "u0"
		seed   = 7
		period = 4.0 // > the complex model's ≈3.3 s on the watch
		n      = 450 // windows: one commute period
	)
	sys := hw.NewSystem()
	sys.PeriodSeconds = period
	tr, err := ble.NewConnectivityTrace(true, 100, 200, 300, 312)
	if err != nil {
		t.Fatal(err)
	}
	sys.Link.UseTrace(tr)
	constraint := core.MAEConstraint(6)

	vc := NewVirtualClock()
	e, err := Open(Config{Engine: eng, System: sys, Constraint: constraint, Clock: vc,
		Faults: &sc, FaultSeed: seed, Belief: pol})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession(id)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if st := s.Submit(&ws[k%len(ws)], vc.Now()); st != SubmitOK {
			t.Fatalf("submit %d: %v", k, st)
		}
		e.Tick()
		vc.Advance(period)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := s.Drain(), s.Stats()

	simCfg := func() sim.Config {
		inj, err := faults.NewInjector(sc, faults.NewRand(seed).Fork("session:"+id).Seed())
		if err != nil {
			t.Fatal(err)
		}
		return sim.Config{System: sys, Engine: eng, Constraint: constraint, Windows: ws,
			DurationSeconds: n * period, Faults: inj, Belief: pol}
	}
	want, err := sim.Run(simCfg())
	if err != nil {
		t.Fatal(err)
	}
	if want.SkippedWindows != 0 || want.Predictions != n {
		t.Fatalf("sim skipped %d windows, predicted %d of %d", want.SkippedWindows, want.Predictions, n)
	}

	// The simulator one window per segment (segmentation is bitwise
	// invisible), reading each window's offload and gate verdicts off the
	// state and its difficulty, model and HR off the tap.
	*tp = tap{open: true}
	cfg := simCfg()
	st := &sim.State{}
	offloaded := make([]bool, n)
	gated := make([]bool, n)
	for k := 0; k < n; k++ {
		off, gat := st.Res.Offloaded, st.BeliefGated
		if err := sim.RunState(cfg, st, float64(k+1)*period); err != nil {
			t.Fatal(err)
		}
		offloaded[k], gated[k] = st.Res.Offloaded > off, st.BeliefGated > gat
	}
	tp.open = false
	if st.Res != want {
		t.Fatalf("segmented sim differs from sim.Run:\n%+v\nvs\n%+v", st.Res, want)
	}
	if len(got) != n || len(tp.diffs) != n || len(tp.models) != n {
		t.Fatalf("%d serve results, %d sim ratings, %d sim estimates; want %d each",
			len(got), len(tp.diffs), len(tp.models), n)
	}
	for k, r := range got {
		if r.Model != tp.models[k] || r.Offloaded != offloaded[k] || r.Difficulty != tp.diffs[k] ||
			r.HR != tp.hrs[k] || r.Gated != gated[k] {
			t.Fatalf("window %d: serve {model %s offloaded %v difficulty %d HR %v gated %v} != "+
				"sim {model %s offloaded %v difficulty %d HR %v gated %v}", k,
				r.Model, r.Offloaded, r.Difficulty, r.HR, r.Gated,
				tp.models[k], offloaded[k], tp.diffs[k], tp.hrs[k], gated[k])
		}
	}

	counters := []struct {
		name      string
		serve     uint64
		simulator int
	}{
		{"offloaded", stats.Offloaded, want.Offloaded},
		{"fallback", stats.FallbackWindows, want.FallbackWindows},
		{"deadline misses", stats.DeadlineMisses, want.DeadlineMisses},
		{"retries", stats.Retries, want.Retries},
		{"timeouts", stats.Timeouts, want.Timeouts},
		{"supervision drops", stats.SupervisionDrops, want.SupervisionDrops},
		{"retransmit packets", stats.RetransmitPackets, want.RetransmitPackets},
		{"reselections", stats.Reselections, want.Reselections},
		{"reselect failures", stats.ReselectFailures, want.ReselectFailures},
		{"gated", stats.GatedWindows, want.GatedOffloads},
	}
	for _, c := range counters {
		if c.serve != uint64(c.simulator) {
			t.Errorf("%s: serve %d, sim %d", c.name, c.serve, c.simulator)
		}
	}
	if stats.RadioEnergy != want.Watch.Radio {
		t.Errorf("radio energy: serve %v, sim %v", stats.RadioEnergy, want.Watch.Radio)
	}
	// serve sums a window's phone computes before adding them to the
	// total, sim adds them one by one: equal up to rounding.
	if d := math.Abs(float64(stats.PhoneEnergy - want.PhoneEnergy)); d > 1e-12*float64(want.PhoneEnergy) {
		t.Errorf("phone energy: serve %v, sim %v", stats.PhoneEnergy, want.PhoneEnergy)
	}
	if stats.ActiveConfig != want.ActiveConfig {
		t.Errorf("active config: serve %q, sim %q", stats.ActiveConfig, want.ActiveConfig)
	}
	if want.Reselections == 0 || want.Offloaded+want.FallbackWindows == 0 || (pol != nil && want.GatedOffloads == 0) {
		t.Errorf("the run exercised too little: %d reselections, %d offloads, %d fallbacks, %d gated",
			want.Reselections, want.Offloaded, want.FallbackWindows, want.GatedOffloads)
	}
}
