package sim

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw/ble"
	"repro/internal/hw/power"
)

func mustInjector(t *testing.T, sc faults.Scenario, seed uint64) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestRunFaultsDeterministic(t *testing.T) {
	sys, engine, ws := fixture(t)
	run := func(seed uint64) Result {
		res, err := Run(Config{
			System:          sys,
			Engine:          engine,
			Constraint:      core.MAEConstraint(6),
			Windows:         ws,
			DurationSeconds: 1200,
			IncludeSensors:  true,
			Faults:          mustInjector(t, faults.WorstCase(), seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same fault seed produced different results:\n%+v\nvs\n%+v", a, b)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Error("same fault seed produced different JSON summaries")
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Error("different fault seeds reproduced the identical result")
	}
}

// TestRunZeroFaultScenarioMatchesClean: a nil Faults run is the empty
// faults.None() scenario, so the two must agree bitwise on every link
// trace — link-edge reselection included — except for the
// scenario-identity fields.
func TestRunZeroFaultScenarioMatchesClean(t *testing.T) {
	sys, engine, ws := fixture(t)
	gated := beliefPolicy(t, ws)
	gated.GateBPM = 30
	cases := []struct {
		name   string
		trace  []float64 // link toggle times; nil keeps the link up
		belief *belief.Policy
	}{
		{"always-up", nil, nil},
		{"dropout+flap", []float64{100, 200, 300, 310}, nil},
		{"dropout+flap+gate", []float64{100, 200, 300, 310}, gated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				System:          sys,
				Engine:          engine,
				Constraint:      core.MAEConstraint(6),
				Windows:         ws,
				DurationSeconds: 600,
				IncludeSensors:  true,
				Belief:          tc.belief,
			}
			if tc.trace != nil {
				tr, err := ble.NewConnectivityTrace(true, tc.trace...)
				if err != nil {
					t.Fatal(err)
				}
				base.Trace = tr
			}
			clean, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			withFaults := base
			withFaults.Faults = mustInjector(t, faults.None(), 99)
			faulty, err := Run(withFaults)
			if err != nil {
				t.Fatal(err)
			}
			if faulty.FaultScenario != "none" || faulty.FaultSeed != 99 {
				t.Errorf("scenario identity not recorded: %q seed %d", faulty.FaultScenario, faulty.FaultSeed)
			}
			if clean.FaultScenario != "" || clean.FaultSeed != 0 {
				t.Errorf("nil-Faults run records scenario %q seed %d", clean.FaultScenario, clean.FaultSeed)
			}
			faulty.FaultScenario = ""
			faulty.FaultSeed = 0
			if !reflect.DeepEqual(clean, faulty) {
				t.Fatalf("zero-fault injected run is not bitwise identical to the nil-Faults run:\nnil    %+v\nfaults %+v", clean, faulty)
			}
		})
	}
}

// TestRunReselectFailureKeepsConfig: when the link view changes and no
// configuration meets the constraint for it, the run keeps its active
// configuration and counts the failure instead of aborting. The store
// holds only hybrid configurations, so the degraded (link-down)
// selection is infeasible throughout the outage.
func TestRunReselectFailureKeepsConfig(t *testing.T) {
	sys, engine, ws := fixture(t)
	hybrid := hybridOnly(t, engine)
	outage := faults.Scenario{Name: "outage", Flaps: []faults.Interval{{From: 20, To: 80}}}
	res, err := Run(Config{
		System:          sys,
		Engine:          hybrid,
		Constraint:      core.MAEConstraint(6),
		Windows:         ws,
		DurationSeconds: 120,
		Faults:          mustInjector(t, outage, 1),
	})
	if err != nil {
		t.Fatalf("infeasible reselection aborted the run: %v", err)
	}
	want, err := hybrid.SelectConfig(true, core.MAEConstraint(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveConfig != want.Name() {
		t.Errorf("active config %q, want the kept %q", res.ActiveConfig, want.Name())
	}
	if res.Reselections != 0 {
		t.Errorf("reselections = %d, want 0", res.Reselections)
	}
	// 30 down windows: the first failure after FailWindows (3), then one
	// retry per expired cooldown (10 windows + 1).
	if res.ReselectFailures != 3 {
		t.Errorf("reselect failures = %d, want 3", res.ReselectFailures)
	}
	if res.LinkDownWindows != 30 || res.FallbackWindows != 30 {
		t.Errorf("link-down %d / fallback %d windows, want 30 / 30", res.LinkDownWindows, res.FallbackWindows)
	}
}

// hybridOnly rebuilds eng over its hybrid configurations alone, with a
// rater that rates every window hardest, so every window is offloaded.
func hybridOnly(t *testing.T, eng *core.Engine) *core.Engine {
	t.Helper()
	var ps []core.Profile
	for _, p := range eng.Profiles() {
		if p.Exec == core.Hybrid {
			ps = append(ps, p)
		}
	}
	out, err := core.NewEngine(ps, hardest{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// hardest rates every window at the top difficulty rank.
type hardest struct{}

func (hardest) DifficultyID(*dalia.Window) int { return 9 }

func TestRunWorstCaseDegrades(t *testing.T) {
	sys, engine, ws := fixture(t)
	bat := power.NewLiIon370()
	res, err := Run(Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Windows:         ws,
		DurationSeconds: 1200, // two worst-case periods
		IncludeSensors:  true,
		Battery:         bat,
		Faults:          mustInjector(t, faults.WorstCase(), 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RetransmitPackets == 0 || res.RetransmitEnergy <= 0 {
		t.Errorf("worst-case scenario caused no retransmissions: %d packets / %v",
			res.RetransmitPackets, res.RetransmitEnergy)
	}
	if res.FallbackWindows == 0 {
		t.Error("worst-case scenario never degraded to the fallback model")
	}
	if res.FaultWindows == 0 || res.FaultMAE <= 0 {
		t.Errorf("fault windows not tracked: %d windows, MAE %v", res.FaultWindows, res.FaultMAE)
	}
	// The fallback model is the cheap high-bias estimator, so faulted
	// windows must read worse than the overall average.
	if res.FaultMAE < res.MAE {
		t.Errorf("fault-window MAE %v below overall MAE %v", res.FaultMAE, res.MAE)
	}
	// Brown-out: worst-case injects 50 mJ once per 600 s period.
	if want := power.MilliJoules(100); math.Abs(float64(res.BrownOutEnergy)-float64(want)) > 1e-9 {
		t.Errorf("brown-out drain %v, want %v (2 periods × 50 mJ)", res.BrownOutEnergy, want)
	}
	// Energy bookkeeping still closes: drain = watch/η + brown-outs.
	want := float64(res.Watch.Total())/0.9 + float64(res.BrownOutEnergy)
	if math.Abs(float64(res.BatteryDrain)-want) > 1e-9 {
		t.Errorf("battery drain %v, want %v", float64(res.BatteryDrain), want)
	}
}

func TestRunHysteresisDampsFlaps(t *testing.T) {
	sys, engine, ws := fixture(t)
	// Six one-window flaps (2 s each, separated by three up windows). Each
	// flap is shorter than the FailWindows hysteresis threshold, so the
	// engine must hold its configuration through all of them.
	sc := faults.Scenario{
		Name: "flappy",
		Flaps: []faults.Interval{
			{From: 8, To: 10}, {From: 16, To: 18}, {From: 24, To: 26},
			{From: 32, To: 34}, {From: 40, To: 42}, {From: 48, To: 50},
		},
	}
	res, err := Run(Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Windows:         ws,
		DurationSeconds: 60,
		Faults:          mustInjector(t, sc, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkDownWindows != 6 {
		t.Fatalf("link-down windows = %d, want 6", res.LinkDownWindows)
	}
	if res.Reselections != 0 {
		t.Errorf("hysteresis failed: %d reselections for sub-threshold flaps, want 0", res.Reselections)
	}
	// Only the down windows whose dispatch wanted an offload degrade;
	// windows routed to the watch-side model are unaffected by the link.
	if res.FallbackWindows == 0 || res.FallbackWindows > res.LinkDownWindows {
		t.Errorf("fallback windows = %d, want within (0, %d]", res.FallbackWindows, res.LinkDownWindows)
	}

	// A sustained outage does cross the threshold: the engine reselects
	// away and recovers once — exactly two switches, not one per blip.
	long := faults.Scenario{Name: "outage", Flaps: []faults.Interval{{From: 20, To: 60}}}
	res2, err := Run(Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Windows:         ws,
		DurationSeconds: 120,
		Faults:          mustInjector(t, long, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reselections != 2 {
		t.Errorf("sustained outage reselections = %d, want 2 (degrade + recover)", res2.Reselections)
	}
}

func TestRunIdleCoverageInvariant(t *testing.T) {
	sys, engine, ws := fixture(t)
	// Skip-heavy configuration: the complex model runs locally for ≈3.3 s
	// against a 1 s period, so most windows are skipped. Every simulated
	// second must still be charged at exactly one MCU rate (active or
	// idle), so converting the energy breakdown back to seconds must cover
	// the horizon — the pre-fix simulator under-charged idle here.
	sys.PeriodSeconds = 1.0
	defer func() { sys.PeriodSeconds = 2.0 }()
	res, err := Run(Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(2.5),
		Trace:           mustTrace(t, false),
		Windows:         ws,
		DurationSeconds: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedWindows == 0 {
		t.Fatal("fixture no longer produces skipped windows")
	}
	active := float64(res.Watch.Compute) / float64(sys.MCU.ActivePower)
	idle := float64(res.Watch.Idle) / float64(sys.MCU.IdlePower)
	covered := active + idle
	// The last active burst may run past the horizon; everything up to the
	// horizon must be covered, and nothing beyond one burst extra.
	maxBurst := 4.0 // complex-model local compute ≈ 3.3 s
	if covered < res.SimulatedSeconds-1e-9 {
		t.Errorf("MCU time coverage %v s below simulated %v s: idle under-charged", covered, res.SimulatedSeconds)
	}
	if covered > res.SimulatedSeconds+maxBurst {
		t.Errorf("MCU time coverage %v s exceeds simulated %v s + burst", covered, res.SimulatedSeconds)
	}
}

func TestRunTraceRoutesThroughLink(t *testing.T) {
	sys, engine, ws := fixture(t)
	// Force the static state down; an up-trace passed via Config.Trace
	// must still win (trace precedence), and the run must restore the
	// link's previous trace afterwards.
	sys.Link.SetConnected(false)
	defer sys.Link.SetConnected(true)
	res, err := Run(Config{
		System:          sys,
		Engine:          engine,
		Constraint:      core.MAEConstraint(6),
		Trace:           mustTrace(t, true),
		Windows:         ws,
		DurationSeconds: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkDownWindows != 0 {
		t.Errorf("up-trace over forced-down link: %d down windows, want 0", res.LinkDownWindows)
	}
	if res.Offloaded == 0 {
		t.Error("up-trace run never offloaded")
	}
	if sys.Link.Trace() != nil {
		t.Error("Run did not restore the link's previous trace")
	}
}
