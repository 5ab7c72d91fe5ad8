// Package sim runs whole-system simulations of a CHRIS smartwatch: window
// ticks, decision-engine dispatch, MCU/radio/phone energy accounting,
// sensor front-end drain, BLE link dropouts with configuration
// re-selection, and battery depletion — the pieces behind the paper's
// battery-life motivation (§I) and connectivity discussion (§IV-B).
//
// A simulation composes the decision engine (internal/core), the
// calibrated hardware models (internal/hw) and a window stream
// (internal/dalia) into a tick loop; the examples/ directory drives it
// for the battery-life and connection-loss scenarios.
//
// Each window goes through Machine, the per-window offload machine the
// streaming engine (internal/serve) drives per session too: gated
// dispatch, then the deadline/retry/backoff offload protocol over a lossy
// Gilbert–Elliott burst channel, then graceful degradation to the
// watch-side simple model, with configuration reselection behind
// hysteresis. Its Carry has one CHSS codec, shared by State and the
// serve session snapshots. Config.Faults injects a scenario
// (internal/faults): packet loss, link flaps, phone latency spikes and
// unavailability, battery brown-outs. A nil Faults is the empty
// faults.None() scenario through the same loop — bitwise equal to it —
// and a fixed fault seed replays to an identical Result; both are pinned
// by tests.
//
// Hot paths: the per-window tick loop. It is orders of magnitude lighter
// than the inference pipeline (no model evaluation — it consumes
// precomputed records/decisions and energy table lookups), but it is
// dense enough to matter for long fault sweeps, so BENCH kernels
// SimRun1h/clean and SimRun1h/faults track its throughput with and
// without injection (internal/bench).
package sim
