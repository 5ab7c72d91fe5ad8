package serve

import "repro/internal/hw/power"

// Outcome classifies how one window travelled through the overload
// ladder. The rungs are ordered by precedence: a window is judged at
// admission (dropped), then at dequeue (expired, shed), then by the
// offload protocol (fallback), and only a healthy window reaches the
// dispatched path (full/simple). Late marks a result that was computed
// but finished past its deadline and was discarded.
type Outcome uint8

const (
	// OutcomeFull: the window ran the dispatched model (complex locally,
	// or offloaded with a timely phone response).
	OutcomeFull Outcome = iota
	// OutcomeSimple: the difficulty detector routed the window to the
	// configuration's simple model — the healthy cheap path, not a
	// degradation.
	OutcomeSimple
	// OutcomeFallback: the offload pipeline failed (loss, timeout,
	// supervision drop, phone down) and the window degraded gracefully to
	// the watch-side simple model.
	OutcomeFallback
	// OutcomeShed: the session was overloaded (mailbox at or past the
	// high-water mark) and the window was degraded to the simple model
	// without consulting the dispatcher.
	OutcomeShed
	// OutcomeExpired: the window's deadline had already passed when the
	// coalescer picked it up; it was discarded without inference.
	OutcomeExpired
	// OutcomeLate: inference finished past the window deadline; the
	// result was discarded.
	OutcomeLate
	// OutcomePanic: inference (or dispatch) panicked on this window; the
	// panic was recovered, the session restarted, and the window carries
	// no estimate.
	OutcomePanic
)

// String names the outcome for logs and JSON summaries.
func (o Outcome) String() string {
	switch o {
	case OutcomeFull:
		return "full"
	case OutcomeSimple:
		return "simple"
	case OutcomeFallback:
		return "fallback"
	case OutcomeShed:
		return "shed"
	case OutcomeExpired:
		return "expired"
	case OutcomeLate:
		return "late"
	case OutcomePanic:
		return "panic"
	default:
		return "unknown"
	}
}

// Discarded reports whether the window produced no usable estimate.
func (o Outcome) Discarded() bool {
	return o == OutcomeExpired || o == OutcomeLate || o == OutcomePanic
}

// WindowResult is the engine's answer for one submitted window.
type WindowResult struct {
	// Seq is the session-local submission sequence number (0-based over
	// accepted windows).
	Seq uint64
	// Arrival is the submission timestamp (engine seconds).
	Arrival float64
	// HR is the estimate in BPM; 0 when Outcome.Discarded().
	HR float64
	// Model names the estimator that produced HR ("" when discarded).
	Model string
	// Outcome places the window on the overload ladder.
	Outcome Outcome
	// Offloaded is true when the estimate came from the phone side.
	Offloaded bool
	// Difficulty is the detector's activity rank (0 when the dispatcher
	// was bypassed).
	Difficulty int
	// Latency is completion minus arrival in engine seconds. Under a
	// VirtualClock it measures queueing delay only (processing happens
	// within one frozen tick).
	Latency float64
	// Gated is true when the uncertainty gate demoted this window's
	// offload to the local simple model (belief mode only).
	Gated bool
	// CIWidth is the posterior credible-interval width in BPM after this
	// window's estimate was fused (0 when belief is off or the window was
	// discarded).
	CIWidth float64
}

// SessionStats aggregates one session's robustness counters. All counts
// are monotonic over the session's life.
type SessionStats struct {
	// Admission.
	Submitted uint64 // Submit calls
	Accepted  uint64 // admitted to the mailbox
	Dropped   uint64 // rejected: mailbox full (ladder rung 1)
	Rejected  uint64 // rejected: engine-wide admission bound or closed
	// Processing outcomes (sum equals finished windows).
	FullRuns        uint64
	SimpleRuns      uint64
	FallbackWindows uint64
	ShedWindows     uint64
	Expired         uint64
	Late            uint64
	Panics          uint64
	// Offload protocol counters (mirroring sim.Result).
	Offloaded         uint64
	Retries           uint64
	Timeouts          uint64
	SupervisionDrops  uint64
	DeadlineMisses    uint64
	RetransmitPackets uint64
	// GatedWindows counts offloads demoted by the uncertainty gate
	// (belief mode only).
	GatedWindows uint64
	// Supervision.
	Restarts     uint64
	Reselections uint64
	// ReselectFailures counts reselections (hysteresis or restart) that
	// found no configuration meeting the constraint; the session kept
	// its active configuration.
	ReselectFailures uint64 `json:",omitempty"`
	// Durability. Migrations counts how many times this session's state
	// was attached from a Detach frame; RestoreFailures counts restore
	// attempts that degraded to a fresh session (corrupt or stale
	// snapshot), with RestoreError holding the last typed failure.
	Migrations      uint64
	RestoreFailures uint64
	RestoreError    string
	// Energy accounting (watch radio + phone side).
	RadioEnergy      power.Energy
	RetransmitEnergy power.Energy
	PhoneEnergy      power.Energy
	// ActiveConfig is the session's currently selected configuration.
	ActiveConfig string
}

// Finished returns the number of windows that left the pipeline (with or
// without an estimate).
func (s SessionStats) Finished() uint64 {
	return s.FullRuns + s.SimpleRuns + s.FallbackWindows + s.ShedWindows +
		s.Expired + s.Late + s.Panics
}
