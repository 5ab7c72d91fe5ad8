package sim

import (
	"fmt"
	"math"

	"repro/internal/hw/power"
	"repro/internal/snapshot"
)

// State is the complete inter-window carry of one simulation. The
// segmentation invariant — pinned by TestRunStateSegmentedBitwise — is
// that running [0, D) in one RunState call or in any partition of
// segments through a State yields bitwise-identical Results, including
// every float accumulator.
//
// Queued sensor data is not part of the schema: the simulator consumes
// each window within its tick, so a segment boundary never holds
// in-flight windows (the streaming engine documents the same crash-loss
// contract for its mailboxes).
type State struct {
	// Started distinguishes a resumed State from a fresh one; Done marks
	// a completed run (Res is final and further RunState calls no-op).
	Started, Done bool
	// T is the next window's start time; WI the number of windows
	// consumed (the index into the cyclically replayed stream).
	T  float64
	WI int
	// BusyUntil carries an in-flight local inference across the boundary.
	BusyUntil float64
	// Res holds the accumulators folded so far. MAE/FaultMAE and the
	// belief summary fields are only computed at completion.
	Res Result
	// AbsErrSum/FaultAbsErrSum are the MAE numerators.
	AbsErrSum, FaultAbsErrSum float64
	// Carry is the offload machine's state, active configuration
	// included.
	Carry Carry
	// HasBattery records whether the run drains a battery;
	// BatteryRemaining is its charge at the boundary.
	HasBattery       bool
	BatteryRemaining power.Energy
	// HasBelief records whether the belief filter runs; the fields below
	// it carry the posterior and the observation counters.
	HasBelief       bool
	BeliefPost      []float64
	BeliefPredicted bool
	BeliefGated     int
	BeliefObserved  int
	BeliefCovered   int
	BeliefWidthSum  float64
}

// RunState advances the scenario until min(stopSeconds,
// cfg.DurationSeconds); stopSeconds <= 0 (or NaN) means run to
// completion. A zero-value *st starts fresh; a State saved by a previous
// call resumes. cfg must be the same configuration across segments —
// battery and belief presence are checked, and the active configuration
// is rebound by name — but the split points themselves are free: the
// trajectory is bitwise independent of segmentation.
func RunState(cfg Config, st *State, stopSeconds float64) error {
	switch {
	case cfg.System == nil || cfg.Engine == nil:
		return fmt.Errorf("sim: System and Engine are required")
	case len(cfg.Windows) == 0:
		return fmt.Errorf("sim: no windows to replay")
	case cfg.DurationSeconds <= 0:
		return fmt.Errorf("sim: non-positive duration")
	}
	if st.Done {
		return nil
	}
	if st.Started {
		if st.HasBattery != (cfg.Battery != nil) {
			return fmt.Errorf("sim: state battery presence %v does not match config", st.HasBattery)
		}
		if st.HasBelief != (cfg.Belief != nil) {
			return fmt.Errorf("sim: state belief presence %v does not match config", st.HasBelief)
		}
		if cfg.Battery != nil {
			if err := cfg.Battery.Restore(st.BatteryRemaining); err != nil {
				return fmt.Errorf("sim: resume: %w", err)
			}
		}
	}
	stop := cfg.DurationSeconds
	if stopSeconds > 0 && stopSeconds < stop {
		stop = stopSeconds
	}
	if cfg.Trace != nil {
		prev := cfg.System.Link.Trace()
		cfg.System.Link.UseTrace(cfg.Trace)
		defer cfg.System.Link.UseTrace(prev)
	}
	m := NewMachine(&cfg)
	if st.Started {
		if err := m.Resume(st.Carry); err != nil {
			return fmt.Errorf("sim: resume: %w", err)
		}
	} else {
		if err := m.Reset(0); err != nil {
			return fmt.Errorf("sim: initial selection: %w", err)
		}
		st.Res.ActiveConfig = m.cur.Name()
		if cfg.Faults != nil {
			st.Res.FaultScenario = cfg.Faults.Scenario().Name
			st.Res.FaultSeed = cfg.Faults.Seed()
		}
	}
	bs, err := restoreBelief(&cfg, st)
	if err != nil {
		return err
	}
	return run(&cfg, st, m, bs, stop)
}

// capture folds the loop carry back into the state at a segment
// boundary.
func (st *State) capture(cfg *Config, t float64, wi int, busyUntil, absErrSum, faultAbsErrSum float64, res *Result, m *Machine, bs *beliefState) {
	st.Started = true
	st.T = t
	st.WI = wi
	st.BusyUntil = busyUntil
	st.AbsErrSum = absErrSum
	st.FaultAbsErrSum = faultAbsErrSum
	st.Res = *res
	st.Carry = m.Carry()
	st.HasBattery = cfg.Battery != nil
	if cfg.Battery != nil {
		st.BatteryRemaining = cfg.Battery.Remaining()
	}
	st.HasBelief = bs != nil
	if bs != nil {
		st.BeliefPost, st.BeliefPredicted = bs.f.Snapshot(st.BeliefPost)
		st.BeliefGated = bs.gated
		st.BeliefObserved = bs.observed
		st.BeliefCovered = bs.covered
		st.BeliefWidthSum = bs.widthSum
	}
}

// finishRun finalizes the result at completion (normal end or battery
// exhaustion): the derived summary fields are computed exactly once.
func (st *State) finishRun(cfg *Config, bs *beliefState) {
	if cfg.Battery != nil {
		st.Res.FinalSoC = cfg.Battery.SoC()
	}
	if bs != nil {
		bs.fold(&st.Res)
	}
	st.Res.finish(st.AbsErrSum, st.FaultAbsErrSum)
	st.Done = true
}

// restoreBelief rebuilds the belief wiring for a segment: the filter and
// RMS table are reconstructed (both pure functions of the config), then a
// resumed posterior and the observation counters are installed exactly.
func restoreBelief(cfg *Config, st *State) (*beliefState, error) {
	if cfg.Belief == nil {
		return nil, nil
	}
	bs, err := newBeliefState(cfg)
	if err != nil {
		return nil, err
	}
	if st.Started {
		if err := bs.f.Restore(st.BeliefPost, st.BeliefPredicted); err != nil {
			return nil, fmt.Errorf("sim: resume: %w", err)
		}
		bs.gated = st.BeliefGated
		bs.observed = st.BeliefObserved
		bs.covered = st.BeliefCovered
		bs.widthSum = st.BeliefWidthSum
	}
	return bs, nil
}

// EncodeState serializes st as a CHSS frame bound to configHash (the
// caller's fingerprint of every trajectory-affecting knob — the fleet
// uses its config hash, so a state file from a different fleet
// configuration is rejected as stale).
func EncodeState(st *State, configHash uint64) []byte {
	w := snapshot.NewWriter(snapshot.KindSimState, configHash)
	w.Bool(st.Started)
	w.Bool(st.Done)
	w.F64(st.T)
	w.I64(int64(st.WI))
	w.F64(st.BusyUntil)
	w.F64(st.AbsErrSum)
	w.F64(st.FaultAbsErrSum)
	EncodeCarry(w, &st.Carry)
	w.Bool(st.HasBattery)
	w.F64(float64(st.BatteryRemaining))
	w.Bool(st.HasBelief)
	w.F64s(st.BeliefPost)
	w.Bool(st.BeliefPredicted)
	w.I64(int64(st.BeliefGated))
	w.I64(int64(st.BeliefObserved))
	w.I64(int64(st.BeliefCovered))
	w.F64(st.BeliefWidthSum)
	encodeResult(w, &st.Res)
	return w.Finish()
}

// DecodeState parses and validates a CHSS sim-state frame. Damaged bytes
// return snapshot.ErrCorrupt, a frame from another configuration (or
// kind, or version) snapshot.ErrStale; both degrade to a from-scratch
// simulation at the caller.
func DecodeState(data []byte, configHash uint64) (*State, error) {
	r, err := snapshot.Open(data, snapshot.KindSimState, configHash)
	if err != nil {
		return nil, err
	}
	st := &State{}
	st.Started = r.Bool()
	st.Done = r.Bool()
	st.T = r.F64()
	st.WI = int(r.I64())
	st.BusyUntil = r.F64()
	st.AbsErrSum = r.F64()
	st.FaultAbsErrSum = r.F64()
	if st.Carry, err = DecodeCarry(r); err != nil {
		return nil, err
	}
	st.HasBattery = r.Bool()
	st.BatteryRemaining = power.Energy(r.F64())
	st.HasBelief = r.Bool()
	st.BeliefPost = r.F64s()
	st.BeliefPredicted = r.Bool()
	st.BeliefGated = int(r.I64())
	st.BeliefObserved = int(r.I64())
	st.BeliefCovered = int(r.I64())
	st.BeliefWidthSum = r.F64()
	decodeResult(r, &st.Res)
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	return st, nil
}

// validate rejects decoded states whose fields are structurally
// impossible: a CRC-intact but forged (or schema-confused) frame must not
// poison a resumed run.
func (st *State) validate() error {
	fin := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sim state: %s is %v", name, v)
		}
		return nil
	}
	for name, v := range map[string]float64{
		"T": st.T, "BusyUntil": st.BusyUntil, "AbsErrSum": st.AbsErrSum,
		"FaultAbsErrSum": st.FaultAbsErrSum, "BatteryRemaining": float64(st.BatteryRemaining), "BeliefWidthSum": st.BeliefWidthSum,
	} {
		if err := fin(name, v); err != nil {
			return err
		}
	}
	switch {
	case st.T < 0 || st.WI < 0:
		return fmt.Errorf("sim state: negative progress (T=%v, WI=%d)", st.T, st.WI)
	case st.BeliefGated < 0 || st.BeliefObserved < 0 || st.BeliefCovered < 0:
		return fmt.Errorf("sim state: negative belief counters")
	case st.HasBelief != (len(st.BeliefPost) > 0):
		return fmt.Errorf("sim state: belief flag and posterior disagree")
	case st.Started && st.Carry.Active == "":
		return fmt.Errorf("sim state: started without an active configuration")
	}
	return nil
}

// resultFields lists r's numeric fields by type, in codec order.
func resultFields(r *Result) ([]*int, []*float64, []*power.Energy) {
	return []*int{&r.Predictions, &r.SimpleRuns, &r.Offloaded, &r.SkippedWindows, &r.LinkDownWindows,
			&r.Reselections, &r.ReselectFailures, &r.Retries, &r.Timeouts, &r.SupervisionDrops,
			&r.FallbackWindows, &r.DeadlineMisses, &r.RetransmitPackets, &r.FaultWindows,
			&r.BeliefBins, &r.GatedOffloads},
		[]*float64{&r.SimulatedSeconds, &r.MAE, &r.FinalSoC, &r.FaultMAE, &r.BeliefWidthMean, &r.BeliefCoverage},
		[]*power.Energy{&r.Watch.Compute, &r.Watch.Radio, &r.Watch.Idle, &r.Watch.Sensors,
			&r.PhoneEnergy, &r.BatteryDrain, &r.RetransmitEnergy, &r.BrownOutEnergy}
}

func encodeResult(w *snapshot.Writer, r *Result) {
	ints, f64s, energies := resultFields(r)
	for _, p := range ints {
		w.I64(int64(*p))
	}
	for _, p := range f64s {
		w.F64(*p)
	}
	for _, p := range energies {
		w.F64(float64(*p))
	}
	w.Bool(r.BatteryExhausted)
	w.String(r.ActiveConfig)
	w.String(r.FaultScenario)
	w.U64(r.FaultSeed)
}

func decodeResult(rd *snapshot.Reader, r *Result) {
	ints, f64s, energies := resultFields(r)
	for _, p := range ints {
		*p = int(rd.I64())
	}
	for _, p := range f64s {
		*p = rd.F64()
	}
	for _, p := range energies {
		*p = power.Energy(rd.F64())
	}
	r.BatteryExhausted = rd.Bool()
	r.ActiveConfig = rd.String()
	r.FaultScenario = rd.String()
	r.FaultSeed = rd.U64()
}
