package sim

import (
	"fmt"
	"math"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/hw/ble"
	"repro/internal/models"
	"repro/internal/snapshot"
)

// Machine is the per-window offload machine of one user: the CHRIS
// runtime's decision procedure (arXiv:2306.06129, §III-B). Route picks
// the model by difficulty behind the belief gate, runs the offload
// protocol when the pick is the phone, and degrades to the watch-side
// simple model when the protocol fails; Settle damps configuration
// reselection behind hysteresis. The offline tick loop (RunState) and
// every streaming session (internal/serve) drive this one type, so the
// two cannot drift apart. Inference stays with the caller: Route names
// the estimator, the simulator runs it inline and the streaming engine
// batches it across users.
type Machine struct {
	sys        *hw.System
	eng        *core.Engine
	constraint core.Constraint
	proto      Protocol
	deadline   float64 // offload pipeline budget per window
	inj        *faults.Injector
	rng        *faults.Rand
	gate       core.UncertaintyGate
	mass       float64

	route         Route // Route's result, reused across windows
	cur           core.Profile
	ch            ble.Channel
	engineUp      bool
	linkDownUntil float64
	failStreak    int
	goodStreak    int
	cooldown      int
}

// NewMachine binds a machine to cfg's System, Engine, Constraint,
// Protocol, Faults and Belief; the other fields are the tick loop's. A
// nil Faults runs the empty faults.None() scenario. The machine holds no
// configuration until Reset or Resume.
func NewMachine(cfg *Config) *Machine {
	inj := cfg.Faults
	if inj == nil {
		// The empty scenario validates by construction.
		inj, _ = faults.NewInjector(faults.None(), 0)
	}
	proto := cfg.Protocol.OrDefault()
	m := &Machine{
		sys:        cfg.System,
		eng:        cfg.Engine,
		constraint: cfg.Constraint,
		proto:      proto,
		deadline:   proto.DeadlineFraction * cfg.System.PeriodSeconds,
		inj:        inj,
		rng:        inj.Rand(),
	}
	if pol := cfg.Belief; pol != nil {
		m.gate = core.UncertaintyGate{MaxWidth: pol.GateBPM}
		m.mass = pol.Mass
	}
	return m
}

// OrDefault returns p, or DefaultProtocol() when p is the zero value.
func (p Protocol) OrDefault() Protocol {
	if p == (Protocol{}) {
		return DefaultProtocol()
	}
	return p
}

// Active returns the active configuration.
func (m *Machine) Active() *core.Profile { return &m.cur }

// Up reports whether the offload link is usable at time t: past any
// reconnect holdoff (inclusive at its end), the link up, and no injected
// flap.
func (m *Machine) Up(t float64) bool {
	return t >= m.linkDownUntil && m.sys.Link.ConnectedAt(t) && !m.inj.ForcedDown(t)
}

// Route is the routing of one window.
type Route struct {
	// Model covers the window: the dispatched model, or the active
	// configuration's simple model when the offload degraded.
	Model      models.HREstimator
	Difficulty int
	// Gated reports that the uncertainty gate demoted an offload.
	Gated bool
	// Attempted reports that the offload pipeline ran: the dispatcher
	// chose the phone and the link was up. Phone is then the model the
	// phone ran, once per Offload.PhoneComputes.
	Attempted bool
	Phone     models.HREstimator
	// Offloaded reports that the phone's answer arrived in time.
	Offloaded bool
	// Degraded reports that the dispatcher chose the phone but the link
	// was down or the pipeline failed: Model is the simple fallback.
	Degraded bool
	// Fault reports that a fault touched the window (loss, retry,
	// timeout, drop, or a down link under an offload).
	Fault bool
	// Offload is the pipeline's cost and counters (zero unless
	// Attempted).
	Offload OffloadOutcome
}

// Route routes the window w arriving at time t with the link state
// up = Up(t): gated dispatch, then Protocol.ResolveOffload when the
// dispatcher chose the phone and the link is up, then fallback to the
// simple model. bf is the user's belief filter (nil without one); with
// an active gate its predictive width can demote an offload. A
// supervision drop holds the link down for Protocol.ReconnectSeconds.
// The returned Route is the machine's, valid until the next call.
func (m *Machine) Route(t float64, up bool, w *dalia.Window, bf *belief.Filter) *Route {
	var d core.Decision
	r := &m.route
	*r = Route{}
	if bf != nil && m.gate.Active() {
		c := core.Confidence{Width: bf.PredictiveWidth(m.mass)}
		d, r.Gated = m.eng.DispatchGated(&m.cur, w, m.gate, c)
	} else {
		d = m.eng.Dispatch(&m.cur, w)
	}
	r.Model, r.Difficulty = d.Model, d.Difficulty
	if !d.Offloaded {
		return r
	}
	if up {
		r.Attempted, r.Phone = true, d.Model
		r.Offload = m.proto.ResolveOffload(m.sys, m.inj, &m.ch, m.rng, d.Model, t, m.deadline)
		r.Fault = r.Offload.Fault
		if r.Offload.SupervisionDrop {
			m.linkDownUntil = t + m.proto.ReconnectSeconds
		}
		if r.Offload.Success {
			r.Offloaded = true
			return r
		}
	}
	r.Degraded, r.Fault = true, true
	r.Model = m.cur.Simple
	return r
}

// Reselect is the outcome of a reselection step.
type Reselect uint8

const (
	// Held: no reselection was due.
	Held Reselect = iota
	// Switched: the configuration was reselected.
	Switched
	// Failed: a reselection was due but no configuration meets the
	// constraint for the new link view; the active configuration is
	// kept (its offloads degrade to the simple model while the link is
	// down).
	Failed
)

// Settle is the reselection hysteresis, stepped once per window with the
// window's link state and fault flag: the machine leaves hybrid
// configurations only after FailWindows consecutive degraded or down
// windows, returns after RecoverWindows healthy ones, and holds still
// through the cooldown after any reselection. A failed reselection
// starts the cooldown too, so a sustained outage retries once per
// cooldown instead of every window.
func (m *Machine) Settle(up, fault bool) Reselect {
	if up && !fault {
		m.goodStreak++
		m.failStreak = 0
	} else {
		m.failStreak++
		m.goodStreak = 0
	}
	switch {
	case m.cooldown > 0:
		m.cooldown--
		return Held
	case m.engineUp && m.failStreak >= m.proto.FailWindows:
		m.failStreak = 0
	case !m.engineUp && m.goodStreak >= m.proto.RecoverWindows:
		m.goodStreak = 0
	default:
		return Held
	}
	m.cooldown = m.proto.CooldownWindows
	if m.reselect(!m.engineUp) != nil {
		return Failed
	}
	return Switched
}

// Reset clears the channel state, reconnect holdoff, streaks and
// cooldown, and selects the configuration for the link at time t: the
// start of a run or session, or a restart after a fault in the caller.
// The random stream survives — a restart heals the pipeline, it does not
// rewrite history. When no configuration meets the constraint the error
// is returned and the active configuration (none, on a fresh machine)
// is kept.
func (m *Machine) Reset(t float64) error {
	m.ch = ble.Channel{}
	m.linkDownUntil = 0
	m.failStreak, m.goodStreak, m.cooldown = 0, 0, 0
	return m.reselect(m.Up(t))
}

// reselect selects for the link view up, keeping the active
// configuration and view when the constraint is infeasible there.
func (m *Machine) reselect(up bool) error {
	next, err := m.eng.SelectConfig(up, m.constraint)
	if err != nil {
		return err
	}
	m.cur, m.engineUp = next, up
	return nil
}

// Carry is the machine's complete inter-window state in serializable
// form: the offline simulator's State and the streaming engine's session
// snapshot both persist it through EncodeCarry/DecodeCarry.
type Carry struct {
	// Active names the active configuration; Resume rebinds it.
	Active string
	// EngineUp is the hysteresis view of the link: whether the active
	// configuration was selected from the hybrid-including store.
	EngineUp bool
	// LinkDownUntil is the reconnect holdoff after a supervision drop.
	LinkDownUntil float64
	// FailStreak, GoodStreak and Cooldown are the hysteresis counters.
	FailStreak, GoodStreak, Cooldown int
	// ChannelBad is the Gilbert–Elliott chain state.
	ChannelBad bool
	// RngState is the fault stream's splitmix64 position.
	RngState uint64
}

// Carry captures the machine's state.
func (m *Machine) Carry() Carry {
	return Carry{
		Active:        m.cur.Name(),
		EngineUp:      m.engineUp,
		LinkDownUntil: m.linkDownUntil,
		FailStreak:    m.failStreak,
		GoodStreak:    m.goodStreak,
		Cooldown:      m.cooldown,
		ChannelBad:    m.ch.Bad(),
		RngState:      m.rng.State(),
	}
}

// Resume installs a captured state; the active configuration must exist
// in the machine's engine.
func (m *Machine) Resume(c Carry) error {
	cur, ok := m.eng.ProfileByName(c.Active)
	if !ok {
		return fmt.Errorf("configuration %q not in engine", c.Active)
	}
	m.cur = cur
	m.engineUp = c.EngineUp
	m.linkDownUntil = c.LinkDownUntil
	m.failStreak, m.goodStreak, m.cooldown = c.FailStreak, c.GoodStreak, c.Cooldown
	m.ch.SetBad(c.ChannelBad)
	m.rng.Restore(c.RngState)
	return nil
}

// EncodeCarry appends c to a CHSS payload.
func EncodeCarry(w *snapshot.Writer, c *Carry) {
	w.String(c.Active)
	w.Bool(c.EngineUp)
	w.F64(c.LinkDownUntil)
	w.I64(int64(c.FailStreak))
	w.I64(int64(c.GoodStreak))
	w.I64(int64(c.Cooldown))
	w.Bool(c.ChannelBad)
	w.U64(c.RngState)
}

// DecodeCarry reads a carry written by EncodeCarry. Truncation and
// structurally impossible fields (negative counters, a non-finite
// holdoff) return snapshot.ErrCorrupt.
func DecodeCarry(r *snapshot.Reader) (Carry, error) {
	c := Carry{
		Active:        r.String(),
		EngineUp:      r.Bool(),
		LinkDownUntil: r.F64(),
		FailStreak:    int(r.I64()),
		GoodStreak:    int(r.I64()),
		Cooldown:      int(r.I64()),
		ChannelBad:    r.Bool(),
		RngState:      r.U64(),
	}
	if err := r.Err(); err != nil {
		return Carry{}, err
	}
	switch {
	case c.FailStreak < 0 || c.GoodStreak < 0 || c.Cooldown < 0:
		return Carry{}, fmt.Errorf("%w: negative hysteresis counters", snapshot.ErrCorrupt)
	case math.IsNaN(c.LinkDownUntil) || math.IsInf(c.LinkDownUntil, 0):
		return Carry{}, fmt.Errorf("%w: reconnect holdoff %v", snapshot.ErrCorrupt, c.LinkDownUntil)
	}
	return c, nil
}
