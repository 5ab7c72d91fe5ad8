package sim

import (
	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/hw/ble"
	"repro/internal/hw/power"
	"repro/internal/models"
)

// Config describes one simulation scenario.
type Config struct {
	System     *hw.System
	Engine     *core.Engine
	Constraint core.Constraint
	// Trace drives the BLE link state; nil keeps the link up. The trace
	// is attached to System.Link for the duration of the run, so all
	// connectivity decisions flow through Link.ConnectedAt (see the
	// precedence rule in ble/link.go).
	Trace *ble.ConnectivityTrace
	// Windows are replayed cyclically as the sensor stream.
	Windows []dalia.Window
	// DurationSeconds is the simulated wall-clock horizon.
	DurationSeconds float64
	// Battery, when non-nil, is drained through the converter; the
	// simulation stops early at exhaustion.
	Battery *power.Battery
	// IncludeSensors charges the PPG/IMU front end to the watch budget.
	IncludeSensors bool
	// Faults injects the scenario's lossy-link events: per-packet
	// Gilbert–Elliott loss with retransmissions and supervision timeouts,
	// phone latency spikes/unavailability, forced link flaps and battery
	// brown-outs. A nil Faults runs the empty faults.None() scenario, so
	// the offload protocol and reselection hysteresis are the same either
	// way; only the FaultScenario/FaultSeed identity fields stay empty.
	Faults *faults.Injector
	// Protocol tunes the offload state machine and the reselection
	// hysteresis; the zero value means DefaultProtocol().
	Protocol Protocol
	// Belief, when non-nil, runs the temporal belief filter over the HR
	// stream: each estimate is fused into a posterior over HR bins,
	// optionally replacing the reported HR with the posterior mean
	// (Policy.Smooth) and demoting offloads the uncertainty gate deems
	// unnecessary (Policy.GateBPM). A nil Belief reproduces the PR 8
	// pipeline bitwise; so does an observer-mode policy (Smooth off, gate
	// off) for every pre-existing Result field.
	Belief *belief.Policy
}

// Protocol parameterizes the offload state machine and the reselection
// hysteresis of the per-window Machine.
type Protocol struct {
	// DeadlineFraction bounds the whole offload pipeline for one window
	// (transmit + retries + response) to this fraction of the prediction
	// period; past it the window degrades to the watch-side model.
	DeadlineFraction float64
	// AttemptTimeoutSeconds is the longest the watch waits for the phone
	// response of a single attempt before declaring it timed out.
	AttemptTimeoutSeconds float64
	// MaxRetries bounds re-attempts after the first transmission.
	MaxRetries int
	// BackoffSeconds is the wait before the first retry; it doubles with
	// every further retry.
	BackoffSeconds float64
	// FailWindows is the hysteresis threshold: consecutive degraded
	// windows before the engine reselects away from hybrid configs.
	FailWindows int
	// RecoverWindows is the opposite threshold: consecutive healthy
	// windows before the engine returns to the full configuration store.
	RecoverWindows int
	// CooldownWindows freezes reselection for this many windows after
	// any hysteresis-driven switch, so bursty links cannot thrash the
	// engine.
	CooldownWindows int
	// ReconnectSeconds is how long the link stays unusable after a
	// supervision-timeout drop while the stack re-establishes the
	// connection.
	ReconnectSeconds float64
}

// DefaultProtocol returns the calibrated defaults: a 50 % period
// deadline, 250 ms per-attempt response timeout, two retries backing off
// from 50 ms, 3-fail/5-recover hysteresis with a 10-window cooldown, and
// a 6 s reconnect after a supervision drop.
func DefaultProtocol() Protocol {
	return Protocol{
		DeadlineFraction:      0.5,
		AttemptTimeoutSeconds: 0.25,
		MaxRetries:            2,
		BackoffSeconds:        0.05,
		FailWindows:           3,
		RecoverWindows:        5,
		CooldownWindows:       10,
		ReconnectSeconds:      6,
	}
}

// Breakdown splits the watch-side energy by component.
type Breakdown struct {
	Compute power.Energy // MCU active
	Radio   power.Energy // BLE streaming
	Idle    power.Energy // MCU stop-mode
	Sensors power.Energy // PPG + IMU front end
}

// Total sums the breakdown.
func (b Breakdown) Total() power.Energy { return b.Compute + b.Radio + b.Idle + b.Sensors }

// Result aggregates a simulation run.
type Result struct {
	SimulatedSeconds float64
	Predictions      int
	SimpleRuns       int
	Offloaded        int
	SkippedWindows   int // MCU still busy with the previous prediction
	LinkDownWindows  int
	Reselections     int
	// ReselectFailures counts hysteresis reselections that found no
	// configuration meeting the constraint for the new link view; the
	// active configuration was kept (see Machine.Settle).
	ReselectFailures int `json:",omitempty"`
	MAE              float64
	Watch            Breakdown
	PhoneEnergy      power.Energy
	BatteryDrain     power.Energy
	BatteryExhausted bool
	FinalSoC         float64
	ActiveConfig     string

	// Robustness counters. Without Config.Faults they can still move
	// when a link trace cuts offloads short.

	// FaultScenario and FaultSeed identify the injected scenario (empty
	// without Config.Faults).
	FaultScenario string
	FaultSeed     uint64
	// Retries counts offload re-attempts after a timeout.
	Retries int
	// Timeouts counts attempts abandoned without a timely phone response.
	Timeouts int
	// SupervisionDrops counts transfers killed by the supervision-timeout
	// rule (sustained packet loss converted into a link drop).
	SupervisionDrops int
	// FallbackWindows counts windows gracefully degraded to the
	// watch-side fallback model after the offload pipeline failed.
	FallbackWindows int
	// DeadlineMisses counts windows whose attempted offload produced no
	// usable phone result within the response deadline.
	DeadlineMisses int
	// RetransmitPackets counts packets re-sent due to loss.
	RetransmitPackets int
	// RetransmitEnergy is the radio energy spent beyond the lossless
	// per-window streaming cost (retransmissions and wasted transfers).
	RetransmitEnergy power.Energy
	// BrownOutEnergy is the battery drain injected by brown-out events.
	BrownOutEnergy power.Energy
	// FaultWindows counts predicted windows whose outcome was touched by
	// a fault (loss, retry, timeout, fallback, forced-down link);
	// FaultMAE is the MAE over exactly those windows.
	FaultWindows int
	FaultMAE     float64

	// Belief counters, populated only when Config.Belief is set.

	// BeliefBins is the HR-grid resolution of the active filter.
	BeliefBins int
	// GatedOffloads counts offload decisions demoted to the local simple
	// model by the uncertainty gate.
	GatedOffloads int
	// BeliefWidthMean is the mean credible-interval width (BPM) across
	// observed windows; BeliefCoverage the fraction of observed windows
	// whose interval covered the true HR.
	BeliefWidthMean float64
	BeliefCoverage  float64
}

// Run executes the scenario to completion. It is a thin wrapper over
// RunState with a fresh State, so monolithic runs and segmented runs
// share one code path (and therefore one numeric trajectory).
func Run(cfg Config) (Result, error) {
	var st State
	if err := RunState(cfg, &st, 0); err != nil {
		return Result{}, err
	}
	return st.Res, nil
}

// run is the tick loop: one Machine step per window, with the energy,
// error and battery accounting around it. Loop carry lives in locals
// loaded from st at segment entry and stored back at exit (the machine's
// own state through its Carry), so the arithmetic inside a window is
// identical whether the run is monolithic or segmented.
func run(cfg *Config, st *State, m *Machine, bs *beliefState, stop float64) error {
	sys := cfg.System
	period := sys.PeriodSeconds
	inj := m.inj
	var bf *belief.Filter
	if bs != nil {
		bf = bs.f
	}

	res := st.Res
	absErrSum := st.AbsErrSum
	faultAbsErrSum := st.FaultAbsErrSum
	busyUntil := st.BusyUntil
	wi := st.WI

	t := st.T
	for ; t < stop; t += period {
		res.SimulatedSeconds = t + period
		up := m.Up(t)
		if !up {
			res.LinkDownWindows++
		}

		w := &cfg.Windows[wi%len(cfg.Windows)]
		wi++

		// Per-window watch-side energy, assembled component by component.
		var windowWatch power.Energy

		// Sensors sample regardless of what the MCU does.
		if cfg.IncludeSensors {
			se := sys.SensorWindowEnergy()
			res.Watch.Sensors += se
			windowWatch += se
		}

		fault := false
		if t < busyUntil {
			// Previous local inference still running: this window is
			// dropped; its compute energy was charged when it started.
			// Once that burst ends mid-window the rest of the window is
			// MCU idle, so every simulated second is charged at exactly
			// one MCU rate (TestRunIdleCoverageInvariant pins this).
			res.SkippedWindows++
			if idle := t + period - busyUntil; idle > 0 {
				idleE := sys.MCU.IdlePower.Over(idle)
				res.Watch.Idle += idleE
				windowWatch += idleE
			}
			if bs != nil {
				bs.f.Coast()
			}
		} else {
			r := m.Route(t, up, w, bf)
			fault = r.Fault
			var busy float64
			if r.Attempted {
				out := &r.Offload
				res.Watch.Radio += out.RadioEnergy
				windowWatch += out.RadioEnergy
				busy += out.Busy
				res.RetransmitPackets += out.RetransmitPackets
				res.RetransmitEnergy += out.RetransmitEnergy
				res.Retries += out.Retries
				res.Timeouts += out.Timeouts
				for i := 0; i < out.PhoneComputes; i++ {
					res.PhoneEnergy += sys.PhoneEnergy(r.Phone)
				}
				if out.SupervisionDrop {
					res.SupervisionDrops++
				}
			}
			if r.Offloaded {
				res.Offloaded++
			} else {
				// The window runs on the watch: the dispatched local
				// model, or the simple model after a degraded offload.
				if r.Degraded {
					res.FallbackWindows++
					if r.Attempted {
						res.DeadlineMisses++
					}
				}
				if r.Model.Name() == m.cur.Simple.Name() {
					res.SimpleRuns++
				}
				busy += sys.MCU.ComputeSeconds(r.Model)
				compute := sys.MCU.ActiveEnergy(r.Model)
				res.Watch.Compute += compute
				windowWatch += compute
			}
			hr := r.Model.EstimateHR(w)
			res.Predictions++
			if bs != nil {
				if r.Gated {
					bs.gated++
				}
				hr = bs.observe(r.Model.Name(), (wi-1)%len(cfg.Windows), hr, w.TrueHR)
			}
			e := models.AbsError(hr, w.TrueHR)
			absErrSum += e
			if fault {
				res.FaultWindows++
				faultAbsErrSum += e
			}
			busyUntil = t + busy
			idle := period - busy
			if idle > 0 {
				idleE := sys.MCU.IdlePower.Over(idle)
				res.Watch.Idle += idleE
				windowWatch += idleE
			}
		}

		switch m.Settle(up, fault) {
		case Switched:
			res.ActiveConfig = m.cur.Name()
			res.Reselections++
		case Failed:
			res.ReselectFailures++
		}

		if cfg.Battery != nil {
			// Brown-outs hit the battery directly (a voltage sag from a
			// concurrent load), bypassing the converter.
			drain := sys.BatteryDrainPerWindow(windowWatch)
			if bo := inj.BrownOutBetween(t, t+period); bo > 0 {
				res.BrownOutEnergy += bo
				drain += bo
			}
			res.BatteryDrain += drain
			if err := cfg.Battery.Drain(drain); err != nil {
				res.BatteryExhausted = true
				st.capture(cfg, t, wi, busyUntil, absErrSum, faultAbsErrSum, &res, m, bs)
				st.finishRun(cfg, bs)
				return nil
			}
		}
	}
	st.capture(cfg, t, wi, busyUntil, absErrSum, faultAbsErrSum, &res, m, bs)
	if stop >= cfg.DurationSeconds {
		st.finishRun(cfg, bs)
	}
	return nil
}

func (r *Result) finish(absErrSum, faultAbsErrSum float64) {
	if r.Predictions > 0 {
		r.MAE = absErrSum / float64(r.Predictions)
	}
	if r.FaultWindows > 0 {
		r.FaultMAE = faultAbsErrSum / float64(r.FaultWindows)
	}
}
