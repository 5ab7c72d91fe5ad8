package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/hw/power"
	"repro/internal/sim"
)

// fleet-day: fleet.Run with the default cohort mix, one simulated day per
// user and one worker per CPU. Users come from replay raters and replay
// models, so the workload bypasses model inference and serve entirely:
// it isolates the sim tick loop and fleet's user build and aggregation.
// The loop is closed: a batch of users starts when the previous batch
// ends. The batches rotate over several fleets, each with its own seed
// derived from the workload seed: a fleet's seed also trains its
// difficulty forest and draws its population, which move the cost of a
// window, so one fleet alone would make the figure depend on the seed.

const (
	// fleetUsers is the batch one fleet.Run simulates.
	fleetUsers = 50
	// fleetCount is how many fleets the batches rotate over.
	fleetCount = 8
	// fleetCheckUsers is the slice run at 1 and at nproc workers.
	fleetCheckUsers = 48
)

func fleetConfig(seed uint64, users int) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Users = users
	cfg.Days = 1
	cfg.Seed = seed
	cfg.Workers = runtime.NumCPU()
	return cfg
}

// fleetSeed is the seed of fleet k of a run.
func fleetSeed(seed uint64, k int) uint64 { return seed*fleetCount + uint64(k) }

// fleetRun is one fleet of the rotation and what its callback saw.
type fleetRun struct {
	f *fleet.Fleet
	// Fed by fleet.Run's per-user callback (fleet serializes it).
	mu      sync.Mutex
	windows int64
	perUser map[int][fleet.NumMetrics]float64
	first   *fleet.Summary
	rates   []float64
}

func newFleetRun(seed uint64) (*fleetRun, float64, error) {
	r := &fleetRun{perUser: map[int][fleet.NumMetrics]float64{}}
	cfg := fleetConfig(seed, fleetUsers)
	cfg.OnUser = func(u *fleet.UserResult) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.windows += int64(u.Result.Predictions + u.Result.SkippedWindows)
		r.perUser[u.ID] = u.Metrics
	}
	t0 := time.Now()
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	r.f = f
	return r, time.Since(t0).Seconds(), nil
}

func runFleetDay(rc runConfig) (*outcome, error) {
	out := &outcome{}
	// Each fleet.New is scaled to the reference host speed (calib.go).
	var setups []float64
	var fleets []*fleetRun
	host := newHostSpeed(runtime.NumCPU())
	for k := 0; k < fleetCount; k++ {
		r, setup, err := newFleetRun(fleetSeed(rc.Seed, k))
		if err != nil {
			return nil, err
		}
		fleets = append(fleets, r)
		setups = append(setups, host.scale(setup))
	}
	out.set("setup_s", median(setups))
	out.detail("setup_runs_s", setups)

	// Warm-up, not measured: the first users of a process pay for heap
	// growth and cold caches.
	workers := runtime.NumCPU()
	for id := 0; id < workers; id++ {
		if _, err := fleets[0].f.SimulateUser(id); err != nil {
			return nil, err
		}
	}
	if err := checkWorkerInvariance(out, fleetSeed(rc.Seed, 0)); err != nil {
		return nil, err
	}
	if rc.Trace {
		return out, fleetTraced(out, fleets[0].f)
	}

	// Phase 1: per-user-day latency over every fleet's users, simulated
	// one at a time so that a user's time is its own, not the other
	// worker's contention.
	start := time.Now()
	var lat []float64
	got := make([]map[int][fleet.NumMetrics]float64, len(fleets))
	for k, r := range fleets {
		l, g, err := userLatencies(r.f)
		if err != nil {
			return nil, err
		}
		lat = append(lat, l...)
		got[k] = g
	}
	out.Attempted += len(lat)
	out.detail("p50_ms", quantile(lat, 0.50))
	out.detail("p95_ms", quantile(lat, 0.95))

	// Phase 2: whole fleet.Run batches, rotating over the fleets, for
	// the rest of the timed phase. Each batch's wall time is scaled to
	// the reference host speed.
	var raw []float64
	for b := 0; b < 2*len(fleets) || time.Since(start).Seconds() < rc.Seconds; b++ {
		r := fleets[b%len(fleets)]
		r.windows = 0
		t0 := time.Now()
		sum, err := r.f.Run()
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0).Seconds()
		out.Attempted++
		if r.first == nil {
			r.first = sum
		}
		out.check(reflect.DeepEqual(sum, r.first), "fleet-day: batch %d summary differs from the fleet's first batch", b)
		out.check(sum.Users == fleetUsers, "fleet-day: summary has %d users, want %d", sum.Users, fleetUsers)
		r.rates = append(r.rates, float64(r.windows)/host.scale(wall))
		raw = append(raw, float64(r.windows)/wall)
	}
	// Each fleet's median rate; capacity is their mean.
	var perFleet []float64
	var windows []int64
	for k, r := range fleets {
		perFleet = append(perFleet, median(r.rates))
		windows = append(windows, r.first.Windows)
		for id, m := range got[k] {
			out.check(r.perUser[id] == m, "fleet-day: fleet %d: SimulateUser(%d) differs from the user's fleet.Run result", k, id)
		}
	}
	out.set("capacity_wps", mean(perFleet))
	out.detail("fleet_rates", perFleet)
	out.detail("raw_rates", raw)
	out.detail("raw_capacity_wps", median(raw))
	out.detail("probe_s", host.Seen)
	out.detail("stolen", host.Stolen)
	out.detail("windows_per_batch", windows)
	return out, nil
}

// userLatencies simulates users 0 to fleetUsers-1 once each, one after
// the other. It returns each user-day's wall time in ms and the users'
// metric vectors.
func userLatencies(f *fleet.Fleet) ([]float64, map[int][fleet.NumMetrics]float64, error) {
	lat := make([]float64, fleetUsers)
	got := map[int][fleet.NumMetrics]float64{}
	for id := range lat {
		t0 := time.Now()
		u, err := f.SimulateUser(id)
		if err != nil {
			return nil, nil, err
		}
		lat[id] = float64(time.Since(t0)) / 1e6
		got[id] = u.Metrics
	}
	return lat, got, nil
}

// checkWorkerInvariance runs a small user slice at 1 worker and at one
// worker per CPU; the summaries must be identical.
func checkWorkerInvariance(out *outcome, seed uint64) error {
	var sums []*fleet.Summary
	for _, workers := range []int{1, runtime.NumCPU()} {
		cfg := fleetConfig(seed, fleetCheckUsers)
		cfg.Workers = workers
		s, err := fleet.Run(cfg)
		if err != nil {
			return fmt.Errorf("worker-invariance slice: %w", err)
		}
		sums = append(sums, s)
	}
	out.Attempted++
	out.check(reflect.DeepEqual(sums[0], sums[1]), "fleet-day: the %d-user slice differs between 1 and %d workers", fleetCheckUsers, runtime.NumCPU())
	return nil
}

// fleetTraced times BuildUser and the user's sim.RunState separately on a
// sample of users; each user also runs untraced through SimulateUser just
// before, for the overhead. The replay rater and models are
// fleet-internal, so the sim span's self time includes their table
// lookups.
func fleetTraced(out *outcome, f *fleet.Fleet) error {
	const sample = fleetUsers
	led := NewLedger()
	out.Spans = led
	var windows []float64
	var plain, traced, simSelf float64
	var totalWindows int
	var agg sim.Result
	for id := 0; id < sample; id++ {
		t0 := time.Now()
		want, err := f.SimulateUser(id)
		if err != nil {
			return err
		}
		plain += time.Since(t0).Seconds()
		var u *fleet.User
		build := led.Around("fleet.build_user", 1, func() { u, err = f.BuildUser(id) })
		if err != nil {
			return err
		}
		var st sim.State
		run := led.Around("sim.run", 1, func() { err = sim.RunState(f.SimConfig(u, power.NewLiIon370()), &st, 0) })
		if err != nil {
			return err
		}
		traced += float64(build.Dur()+run.Dur()) / 1e9
		simSelf += float64(run.Dur())
		windows = append(windows, float64(st.WI))
		totalWindows += st.WI
		agg.Predictions += st.Res.Predictions
		agg.Offloaded += st.Res.Offloaded
		agg.GatedOffloads += st.Res.GatedOffloads
		agg.FallbackWindows += st.Res.FallbackWindows
		out.Attempted++
		out.check(reflect.DeepEqual(want.Result, st.Res), "fleet trace: user %d: BuildUser+RunState differs from SimulateUser", id)
	}
	out.set("trace.overhead_frac", traced/plain-1)
	spans := led.Spans()
	out.set("fleet.build_user_ms", median(durationsUS(layerSpans(spans, "fleet.build_user")))/1e3)
	out.set("fleet.sim_user_ms", median(durationsUS(layerSpans(spans, "sim.run")))/1e3)
	out.set("fleet.windows_per_user", median(windows))
	out.set("sim.self_us_per_window", simSelf/1e3/float64(totalWindows))
	out.set("sim.offload_frac", ratio(float64(agg.Offloaded), float64(agg.Predictions)))
	out.set("sim.gated_frac", ratio(float64(agg.GatedOffloads), float64(agg.Predictions)))
	out.set("sim.fallback_frac", ratio(float64(agg.FallbackWindows), float64(agg.Predictions)))
	return nil
}
