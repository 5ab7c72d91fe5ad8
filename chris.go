// Package chris is the public façade of the CHRIS reproduction — the
// Collaborative Heart Rate Inference System from "Energy-efficient
// Wearable-to-Mobile Offload of ML Inference for PPG-based Heart-Rate
// Estimation" (DATE 2023).
//
// The façade re-exports the pieces an application composes:
//
//   - the Models Zoo and its 60 operating configurations (Zoo, Config),
//   - offline profiling on a labelled dataset (ProfileConfigs, Profile),
//   - the decision engine with its constraint- and input-dependent
//     selection stages (Engine, MAEConstraint, EnergyConstraint),
//   - the calibrated hardware models of the paper's testbed (Platform),
//   - the synthetic PPGDalia-like dataset (Dataset, Window, activities),
//   - the three reference HR estimators (NewAT, NewTimePPGSmall,
//     NewTimePPGBig) and the activity-recognition forest (TrainForest),
//   - whole-system simulation (Simulate), optionally fault-injected
//     through the deterministic chaos harness (FaultInjector,
//     CommuteScenario/GymScenario/WorstCaseScenario, OffloadProtocol),
//   - population-scale fleet simulation (SimulateFleet): thousands to
//     millions of seed-forked synthetic users streamed into
//     bounded-memory population aggregates with checkpoint/resume
//     (FleetConfig, FleetSummary, ParseFleetMix; see cmd/chrisfleet),
//   - temporal belief propagation over quantized HR bins (BeliefFilter,
//     BeliefPolicy): an HMM whose learned transition prior smooths the
//     per-window point estimates and whose posterior credible-interval
//     width gates offloads through the decision engine
//     (UncertaintyGate, Engine.DispatchGated; see examples/belief),
//   - crash durability and live migration: the streaming engine
//     snapshots complete per-session state into CRC-protected frames
//     (ServeEngine.Checkpoint/Restore/Detach/Attach, ErrSnapshotCorrupt,
//     ErrSnapshotStale), the simulator runs segmented and resumable
//     (ScenarioState, SimulateResumable), and a resumed or migrated run
//     is bitwise identical to one that never stopped (see
//     examples/durability).
//
// See examples/quickstart for the three-call happy path: BuildPipeline →
// Engine → Predict.
//
// # Performance
//
// The hot paths are allocation-free after warm-up and the profiling
// pipeline is parallel:
//
//   - dsp.Plan caches twiddle-factor and bit-reversal tables per FFT size;
//     Execute/RealFFTInto/PowerSpectrumInto write into caller-provided
//     buffers and allocate nothing in steady state. The package-level
//     FFT/RealFFT/PowerSpectrum functions are thin wrappers over shared
//     cached plans.
//   - The TCN layers keep their output and gradient tensors in
//     layer-local slots (a scratch arena), so a float forward or backward
//     pass performs zero heap allocations after the first call; the int8
//     deployment path reuses its activation buffers the same way. A
//     network or estimator instance is therefore single-goroutine;
//     CloneForWorker/Clone produce worker copies sharing weights.
//   - TCN inference is batched end-to-end: estimators implementing
//     BatchHREstimator (both TimePPG networks, float32 and int8) run whole
//     window slices through (N, C, T) batch tensors lowered onto the
//     blocked, register-unrolled GEMM micro-kernels of internal/gemm via
//     im2col packing — bitwise identical to window-at-a-time EstimateHR,
//     ~4× faster on the deployed int8 path. Training mini-batches run
//     through the same kernels, with gradient reduction and the Adam
//     update fused into one parallel pass (tcn.Adam.StepFused).
//   - WindowRecord stores zoo predictions densely ([]float64 indexed
//     through a shared RecordHeader), BuildRecords fans inference out
//     across GOMAXPROCS workers and prefers the batched path within each
//     chunk (bitwise identical to the serial path), and ProfileConfigs
//     profiles the 60 configurations in parallel.
//
// Benchmarks: `go test -bench . -benchmem` covers every kernel
// (internal/dsp, internal/gemm, internal/models/tcn, internal/eval) next
// to the paper artifacts at the repository root. `chrisbench -json
// BENCH_<pr>.json` writes the machine-readable trajectory file: per-kernel
// ns/op and allocs/op for the optimized and seed-reference
// implementations, plus the headline MAE/energy metrics, so successive
// perf PRs can be compared (BENCH_1.json is the first datapoint;
// BENCH_2.json adds the batched-GEMM and int8 qConv kernels).
package chris

import (
	"repro/internal/belief"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/hw/ble"
	"repro/internal/hw/power"
	"repro/internal/models"
	"repro/internal/models/at"
	"repro/internal/models/rf"
	"repro/internal/models/tcn"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Core CHRIS types.
type (
	// HREstimator is the interface every zoo model implements.
	HREstimator = models.HREstimator
	// BatchHREstimator is the batched fast path: estimators implementing
	// it run whole window slices through GEMM-backed kernels, bitwise
	// identical to window-at-a-time EstimateHR.
	BatchHREstimator = models.BatchHREstimator
	// Zoo is the Models Zoo.
	Zoo = core.Zoo
	// Config is one operating configuration (model pair + threshold +
	// execution target).
	Config = core.Config
	// Profile is a configuration with its measured MAE and energies.
	Profile = core.Profile
	// Engine is the two-stage decision engine.
	Engine = core.Engine
	// Constraint is a user bound on MAE or energy.
	Constraint = core.Constraint
	// Decision is the per-window dispatch outcome.
	Decision = core.Decision
	// WindowRecord feeds the offline profiler.
	WindowRecord = core.WindowRecord
	// RecordHeader maps zoo model names to dense prediction indices.
	RecordHeader = core.RecordHeader
	// Execution selects Local or Hybrid execution.
	Execution = core.Execution
)

// Execution targets.
const (
	Local  = core.Local
	Hybrid = core.Hybrid
)

// Dataset types.
type (
	// DatasetConfig controls the synthetic PPGDalia generator.
	DatasetConfig = dalia.Config
	// Dataset is the lazy cohort handle.
	Dataset = dalia.Dataset
	// Window is one 8-second analysis window.
	Window = dalia.Window
	// Activity is one of the nine protocol activities.
	Activity = dalia.Activity
)

// Hardware types.
type (
	// Platform bundles the calibrated watch/phone/link/sensor models.
	Platform = hw.System
	// Energy in joules (power.Energy).
	Energy = power.Energy
	// ConnectivityTrace schedules BLE up/down events.
	ConnectivityTrace = ble.ConnectivityTrace
)

// Re-exported constructors and functions.
var (
	// NewZoo builds a Models Zoo from estimators ordered worst→best.
	NewZoo = core.NewZoo
	// ProfileConfigs measures configurations over profiling records.
	ProfileConfigs = core.ProfileConfigs
	// ProfileConfig measures a single configuration.
	ProfileConfig = core.ProfileConfig
	// Pareto extracts the non-dominated configurations.
	Pareto = core.Pareto
	// FilterLocal keeps the configurations usable without BLE.
	FilterLocal = core.FilterLocal
	// NewEngine builds the decision engine.
	NewEngine = core.NewEngine
	// MAEConstraint bounds the expected error.
	MAEConstraint = core.MAEConstraint
	// EnergyConstraint bounds the expected watch energy.
	EnergyConstraint = core.EnergyConstraint
	// NewPlatform returns the paper-calibrated hardware models.
	NewPlatform = hw.NewSystem
	// NewDataset opens a synthetic cohort.
	NewDataset = dalia.New
	// DefaultDatasetConfig is the paper-faithful dataset configuration.
	DefaultDatasetConfig = dalia.DefaultConfig
	// SliceWindows cuts a recording into analysis windows.
	SliceWindows = dalia.Windows
	// BuildRecords runs the zoo and detector over windows once.
	BuildRecords = eval.BuildRecords
	// NewRecordHeader builds the shared name→index prediction header.
	NewRecordHeader = core.NewRecordHeader
	// NewConnectivityTrace schedules link up/down toggles.
	NewConnectivityTrace = ble.NewConnectivityTrace
	// MilliJoules and MicroJoules build Energy values.
	MilliJoules = power.MilliJoules
	MicroJoules = power.MicroJoules
)

// NewAT returns the Adaptive Threshold estimator (the cheap classical
// model).
func NewAT() HREstimator { return at.New() }

// NewTimePPGSmall returns an untrained TimePPG-Small network wrapped as an
// estimator. Train it with TrainTimePPG or load cached weights.
func NewTimePPGSmall() *tcn.HRNet { return tcn.NewEstimator(tcn.NewTimePPGSmall()) }

// NewTimePPGBig returns an untrained TimePPG-Big network.
func NewTimePPGBig() *tcn.HRNet { return tcn.NewEstimator(tcn.NewTimePPGBig()) }

// TrainForest fits the activity-recognition Random Forest used as the
// difficulty detector (8 trees, depth 5, the paper's 4 features).
func TrainForest(ws []Window) (*rf.Classifier, error) {
	return rf.Train(ws, rf.DefaultConfig())
}

// PipelineConfig sizes BuildPipeline. It is the experiment-harness
// configuration re-exported.
type PipelineConfig = bench.SuiteConfig

// Pipeline is a fully assembled CHRIS deployment: dataset, trained models,
// difficulty detector, profiled configurations and hardware models.
type Pipeline = bench.Suite

// DefaultPipelineConfig is the full-size pipeline (trains TCNs on first
// use; caches under testdata/cache).
func DefaultPipelineConfig() PipelineConfig { return bench.DefaultSuiteConfig() }

// QuickPipelineConfig is a scaled-down pipeline that builds in seconds.
func QuickPipelineConfig() PipelineConfig { return bench.QuickSuiteConfig() }

// BuildPipeline assembles the full pipeline.
func BuildPipeline(cfg PipelineConfig) (*Pipeline, error) { return bench.NewSuite(cfg) }

// Simulation re-exports.
type (
	// ScenarioConfig drives a whole-system simulation.
	ScenarioConfig = sim.Config
	// ScenarioResult aggregates a simulation run.
	ScenarioResult = sim.Result
	// OffloadProtocol tunes the per-window offload state machine
	// (deadline, retries, backoff, reselection hysteresis).
	OffloadProtocol = sim.Protocol
)

// Simulate runs a whole-system scenario.
func Simulate(cfg ScenarioConfig) (ScenarioResult, error) { return sim.Run(cfg) }

// ScenarioState is the complete inter-window carry of one simulation:
// a zero value starts fresh, a saved value resumes, and any segmentation
// of a run through a state is bitwise invisible in the final result.
type ScenarioState = sim.State

var (
	// SimulateResumable advances a scenario through a ScenarioState until
	// the given stop time (0 = completion); successive calls continue the
	// same run.
	SimulateResumable = sim.RunState
	// EncodeScenarioState and DecodeScenarioState are the CRC-protected
	// binary snapshot codec for ScenarioState (corrupt or stale frames
	// are rejected with typed errors, never panics).
	EncodeScenarioState = sim.EncodeState
	DecodeScenarioState = sim.DecodeState
)

// DefaultOffloadProtocol returns the calibrated offload-protocol defaults.
func DefaultOffloadProtocol() OffloadProtocol { return sim.DefaultProtocol() }

// Fault-injection re-exports (the deterministic chaos harness of
// internal/faults: lossy BLE with replayable per-packet loss, link flaps,
// phone latency spikes and unavailability, battery brown-outs).
type (
	// FaultScenario describes an injected fault pattern over time.
	FaultScenario = faults.Scenario
	// FaultInjector is a seeded, replayable scenario instance; pass it to
	// ScenarioConfig.Faults to inject its lossy-link events.
	FaultInjector = faults.Injector
	// BurstChannelParams parameterizes the Gilbert–Elliott loss channel.
	BurstChannelParams = faults.ChannelParams
)

// Streaming-engine re-exports (internal/serve: the fault-tolerant
// multi-session inference server — bounded per-session mailboxes, a
// cross-session batch coalescer, explicit overload degradation, panic
// supervision and an injectable clock; see cmd/chrisserve and
// examples/streaming).
type (
	// ServeConfig parameterizes the streaming engine.
	ServeConfig = serve.Config
	// ServeEngine multiplexes concurrent user sessions over one model zoo.
	ServeEngine = serve.Engine
	// ServeSession is one user's isolated stream.
	ServeSession = serve.Session
	// ServeResult is the engine's answer for one submitted window.
	ServeResult = serve.WindowResult
	// ServeStats aggregates one session's robustness counters.
	ServeStats = serve.SessionStats
	// ServeOutcome places a window on the overload ladder.
	ServeOutcome = serve.Outcome
	// ServeClock is the engine's injectable time source.
	ServeClock = serve.Clock
	// ServeVirtualClock drives deterministic lockstep runs.
	ServeVirtualClock = serve.VirtualClock
)

var (
	// OpenServeEngine starts a streaming engine (wall-clock server mode,
	// or deterministic lockstep under a ServeVirtualClock).
	OpenServeEngine = serve.Open
	// NewServeVirtualClock returns a manually advanced clock at t=0.
	NewServeVirtualClock = serve.NewVirtualClock
	// ErrSnapshotCorrupt and ErrSnapshotStale classify rejected engine
	// snapshots: damaged bytes versus intact frames from another
	// configuration or codec version. Both degrade deterministically to
	// a fresh session via ServeEngine.AttachOrFresh.
	ErrSnapshotCorrupt = serve.ErrSnapshotCorrupt
	ErrSnapshotStale   = serve.ErrSnapshotStale
)

// Overload-ladder outcomes (see serve.Outcome).
const (
	ServeOutcomeFull     = serve.OutcomeFull
	ServeOutcomeSimple   = serve.OutcomeSimple
	ServeOutcomeFallback = serve.OutcomeFallback
	ServeOutcomeShed     = serve.OutcomeShed
	ServeOutcomeExpired  = serve.OutcomeExpired
	ServeOutcomeLate     = serve.OutcomeLate
	ServeOutcomePanic    = serve.OutcomePanic
)

// Fleet-simulation re-exports (internal/fleet: a synthetic population of
// independent users — per-user physiology, scenario and constraint drawn
// from label-keyed seed forks — simulated through sim.Run and streamed
// into order-invariant bounded-memory aggregates; same seed ⇒
// byte-identical summary across runs and worker counts).
type (
	// FleetConfig parameterizes a fleet run (users, days, seed, mix,
	// population spread, checkpointing).
	FleetConfig = fleet.Config
	// FleetCohort is one scenario×constraint slice of the mix.
	FleetCohort = fleet.Cohort
	// FleetMix is the cohort list users are assigned to by weighted draw.
	FleetMix = fleet.Mix
	// FleetPopulation spreads the per-user physiology knobs.
	FleetPopulation = fleet.Population
	// FleetSummary is the population-level result.
	FleetSummary = fleet.Summary
	// FleetUserResult is one simulated user (streamed via
	// FleetConfig.OnUser).
	FleetUserResult = fleet.UserResult
	// FleetDist is one metric's population distribution.
	FleetDist = fleet.Dist
)

var (
	// SimulateFleet runs a whole fleet and returns the population summary.
	SimulateFleet = fleet.Run
	// NewFleet builds the shared fleet state for per-user access
	// (Fleet.SimulateUser replays any single user standalone, bitwise
	// identical to its slice of a whole-fleet run).
	NewFleet = fleet.New
	// DefaultFleetConfig is a small reference fleet (100 users × 1 day).
	DefaultFleetConfig = fleet.DefaultConfig
	// ParseFleetMix parses the "scenario:constraint:weight,..." mix syntax.
	ParseFleetMix = fleet.ParseMix
	// DefaultFleetMix is the reference scenario mix.
	DefaultFleetMix = fleet.DefaultMix
)

// Belief-propagation re-exports (internal/belief: an HMM over quantized
// HR bins — learned banded transition prior, zero-allocation online
// sum-product forward pass, calibrated credible intervals; the posterior
// width drives uncertainty-gated offload via Engine.DispatchGated).
type (
	// BeliefGrid quantizes the HR axis into uniform bins.
	BeliefGrid = belief.Grid
	// BeliefTable is a row-stochastic HR-transition prior over a grid.
	BeliefTable = belief.Table
	// BeliefFilter is the streaming forward pass (one posterior per user).
	BeliefFilter = belief.Filter
	// BeliefPolicy bundles a prior with observation sigmas and the gate.
	BeliefPolicy = belief.Policy
	// BeliefSigmaSpec maps motion intensity to an observation sigma.
	BeliefSigmaSpec = belief.SigmaSpec
	// BeliefLearnConfig tunes transition-prior learning.
	BeliefLearnConfig = belief.LearnConfig
	// Confidence carries the posterior summary the gate inspects.
	Confidence = core.Confidence
	// UncertaintyGate bounds the belief uncertainty under which an
	// offload decision stands.
	UncertaintyGate = core.UncertaintyGate
	// FleetBeliefConfig switches the belief layer on for a whole fleet.
	FleetBeliefConfig = fleet.BeliefConfig
)

var (
	// NewBeliefFilter builds a streaming filter over a validated prior.
	NewBeliefFilter = belief.NewFilter
	// LearnBeliefTable learns the banded transition prior from windows.
	LearnBeliefTable = belief.LearnWindows
	// DefaultBeliefGrid is the 90-bin 30..210 BPM grid.
	DefaultBeliefGrid = belief.DefaultGrid
	// DefaultBeliefPolicy wraps a table with calibrated defaults.
	DefaultBeliefPolicy = belief.DefaultPolicy
	// SaveBeliefTable and LoadBeliefTable round-trip the binary codec.
	SaveBeliefTable = belief.SaveTable
	LoadBeliefTable = belief.LoadTable
	// BeliefForwardBackward is the offline batch smoother (its filtered
	// marginals are bitwise identical to the online forward pass).
	BeliefForwardBackward = belief.ForwardBackward
	// BeliefViterbi decodes the MAP bin path in the log domain.
	BeliefViterbi = belief.Viterbi
)

var (
	// NewFaultInjector binds a scenario to a replay seed.
	NewFaultInjector = faults.NewInjector
	// FaultScenarioByName looks up a preset scenario (commute, gym,
	// worstcase, none).
	FaultScenarioByName = faults.ByName
	// FaultScenarioNames lists the preset scenario names.
	FaultScenarioNames = faults.Names
	// CommuteScenario, GymScenario and WorstCaseScenario are the preset
	// chaos scenarios; NoFaultScenario is the empty scenario a run
	// without injected faults uses, bitwise.
	CommuteScenario   = faults.Commute
	GymScenario       = faults.Gym
	WorstCaseScenario = faults.WorstCase
	NoFaultScenario   = faults.None
)
