package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/belief"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw/power"
	"repro/internal/sim"
)

// sim-day: a single-user sim batch job. One simulated day of the commute
// fault scenario over the quick zoo's test windows, under chrissim's
// default 0.3 mJ energy bound with the belief gate at 70 BPM, run in
// hourly sim.RunState segments with the state round-tripped through
// sim.EncodeState/DecodeState at every boundary. The loop is closed: a
// day starts when the previous one ends. Inference is serial, so the zoo
// is used as on a watch, not as in serve's batches.

const (
	simHorizon   = 24 * 3600.0
	simSegment   = 3600.0
	simEnergyMJ  = 0.3
	simGateBPM   = 70
	simStateHash = 0xc4e1_5da7
)

// simSetup is one suite's share of the workload: its zoo, engine and
// belief policy.
type simSetup struct {
	suite  *bench.Suite
	engine *core.Engine
	policy *belief.Policy
}

type simPlan struct {
	setups []simSetup
	seed   uint64
}

func newSimPlan(out *outcome, seed uint64) (*simPlan, error) {
	suites, err := buildSuites(out)
	if err != nil {
		return nil, err
	}
	p := &simPlan{seed: seed}
	for _, s := range suites {
		eng, err := core.NewEngine(s.Profiles, s.Classifier)
		if err != nil {
			return nil, err
		}
		policy, err := s.BeliefPolicy()
		if err != nil {
			return nil, err
		}
		policy.GateBPM = simGateBPM
		p.setups = append(p.setups, simSetup{suite: s, engine: eng, policy: policy})
	}
	return p, nil
}

// config is the day's sim.Config for one setup over eng, with a fresh
// battery and a fresh fault injector: an injector is one replayable
// fault stream, used up by the run it serves.
func (p *simPlan) config(su simSetup, eng *core.Engine) sim.Config {
	inj, err := faults.NewInjector(faults.Commute(), p.seed)
	if err != nil {
		panic(fmt.Sprintf("commute scenario rejected: %v", err)) // a preset always validates
	}
	return sim.Config{
		System:          su.suite.Sys,
		Engine:          eng,
		Constraint:      core.EnergyConstraint(power.MilliJoules(simEnergyMJ)),
		Windows:         su.suite.TestWindows,
		DurationSeconds: simHorizon,
		Battery:         power.NewLiIon370(),
		IncludeSensors:  true,
		Faults:          inj,
		Belief:          su.policy,
	}
}

// segmentedDay runs one day in hourly RunState segments, round-tripping
// the state through the snapshot codec at every boundary. It returns the
// final state and each segment's wall time (run plus codec) in seconds.
// A non-nil led receives a "sim.segment" span around each RunState call
// and "snapshot.encode"/"snapshot.decode" spans carrying the frame size.
func segmentedDay(cfg sim.Config, led *Ledger, host *hostSpeed) (*sim.State, []float64, []float64, error) {
	st := &sim.State{}
	var segs, scaled []float64
	for !st.Done {
		stop := st.T + simSegment
		t0 := time.Now()
		var err error
		if led != nil {
			led.Around("sim.segment", 0, func() { err = sim.RunState(cfg, st, stop) })
		} else {
			err = sim.RunState(cfg, st, stop)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		if !st.Done {
			var e0, e1, e2 int64
			if led != nil {
				e0 = led.Now()
			}
			data := sim.EncodeState(st, simStateHash)
			if led != nil {
				e1 = led.Now()
			}
			next, err := sim.DecodeState(data, simStateHash)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("decoding the state at %.0f s: %w", st.T, err)
			}
			if led != nil {
				e2 = led.Now()
				led.Add("snapshot.encode", e0, e1, len(data))
				led.Add("snapshot.decode", e1, e2, len(data))
			}
			st = next
		}
		wall := time.Since(t0).Seconds()
		segs = append(segs, wall)
		if host != nil {
			scaled = append(scaled, host.scale(wall))
		}
	}
	return st, segs, scaled, nil
}

func runSimDay(rc runConfig) (*outcome, error) {
	out := &outcome{}
	p, err := newSimPlan(out, rc.Seed)
	if err != nil {
		return nil, err
	}
	// The unsegmented reference day on every suite, which also warms the
	// heap and caches. The suites are bitwise identical, so the days are.
	var ref sim.Result
	for i, su := range p.setups {
		res, err := sim.Run(p.config(su, su.engine))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ref = res
		}
		out.Attempted++
		out.check(reflect.DeepEqual(res, ref), "sim-day: suite build %d gives another day than build 0", i)
	}
	out.detail("reference", map[string]any{
		"config": ref.ActiveConfig, "predictions": ref.Predictions, "offloaded": ref.Offloaded,
		"fallback": ref.FallbackWindows, "gated": ref.GatedOffloads, "mae": ref.MAE,
	})
	if rc.Trace {
		return out, p.traced(out, ref)
	}

	// Days rotate over the suites.
	var rates, raw, segMS []float64
	host := newHostSpeed(1)
	start := time.Now()
	for d := 0; d < len(p.setups) || time.Since(start).Seconds() < rc.Seconds; d++ {
		su := p.setups[d%len(p.setups)]
		st, segs, scaled, err := segmentedDay(p.config(su, su.engine), nil, host)
		if err != nil {
			return nil, err
		}
		wall := 0.0
		for _, s := range segs {
			wall += s
		}
		out.Attempted++
		out.check(reflect.DeepEqual(st.Res, ref),
			"sim-day: segmented day %d differs from the unsegmented sim.Run", d)
		rates = append(rates, float64(st.WI)/sum(scaled))
		raw = append(raw, float64(st.WI)/wall)
		for _, s := range segs {
			segMS = append(segMS, s*1e3)
		}
	}
	out.set("capacity_wps", median(rates))
	out.detail("p50_ms", quantile(segMS, 0.50))
	out.detail("p95_ms", quantile(segMS, 0.95))
	out.detail("days", len(rates))
	out.detail("raw_rates", raw)
	out.detail("rates", rates)
	out.detail("raw_capacity_wps", median(raw))
	out.detail("probe_s", host.Seen)
	out.detail("stolen", host.Stolen)
	out.detail("segments", len(segMS))
	return out, nil
}

// traced is the sim-day traced run: untraced and traced days alternate
// (the overhead), each traced segment is split into rater, model and sim
// self time, and the codec spans give the durability cost.
func (p *simPlan) traced(out *outcome, ref sim.Result) error {
	led := NewLedger()
	out.Spans = led
	su := p.setups[len(p.setups)-1]
	teng, rater, err := tracedEngine(su.suite.Zoo, su.suite.Classifier, su.suite.ProfileRecords, su.suite.Sys, led)
	if err != nil {
		return err
	}
	var ratios []float64
	var last *sim.State
	for i := 0; i < tracePairs; i++ {
		t0 := time.Now()
		if _, _, _, err := segmentedDay(p.config(su, su.engine), nil, nil); err != nil {
			return err
		}
		plain := time.Since(t0).Seconds()
		rater.reset()
		led.reset()
		t0 = time.Now()
		st, _, _, err := segmentedDay(p.config(su, teng), led, nil)
		if err != nil {
			return err
		}
		ratios = append(ratios, time.Since(t0).Seconds()/plain)
		out.Attempted++
		out.check(reflect.DeepEqual(st.Res, ref), "sim-day trace: decorated day differs from the undecorated one")
		last = st
	}
	out.set("trace.overhead_frac", median(ratios)-1)

	// The ledger now holds the last traced day.
	spans := led.Spans()
	kids := childIndex(spans)
	var self float64
	for _, s := range spans {
		if s.Layer != "sim.segment" {
			continue
		}
		b := breakdown(s, kids[s.ID])
		sum := b.Self
		for _, v := range b.ByLayer {
			sum += v
		}
		out.check(math.Abs(sum-b.Total) < 1, "sim trace: segment %d ledger %v ns != span %v ns", s.ID, sum, b.Total)
		self += b.Self
	}
	for _, msg := range checkNesting(spans) {
		out.check(false, "sim trace: %s", msg)
	}
	res := last.Res
	windows := float64(last.WI)
	out.set("sim.self_us_per_window", self/1e3/windows)
	out.set("sim.offload_frac", ratio(float64(res.Offloaded), float64(res.Predictions)))
	out.set("sim.gated_frac", ratio(float64(res.GatedOffloads), float64(res.Predictions)))
	out.set("sim.fallback_frac", ratio(float64(res.FallbackWindows), float64(res.Predictions)))
	calls, unique := rater.counts()
	out.set("rf.calls_per_window", float64(calls)/windows)
	out.set("rf.unique_frac", ratio(float64(unique), float64(calls)))
	out.set("rf.classify_us.p50", median(durationsUS(layerSpans(spans, "rf"))))
	out.set("at.estimate_us.p50", median(durationsUS(layerSpans(spans, "at.serial"))))
	out.set("tcn.small.serial_us.p50", median(durationsUS(layerSpans(spans, "tcn.small.serial"))))
	out.set("tcn.big.serial_us.p50", median(durationsUS(layerSpans(spans, "tcn.big.serial"))))
	enc := layerSpans(spans, "snapshot.encode")
	out.set("snapshot.encode_us", median(durationsUS(enc)))
	out.set("snapshot.decode_us", median(durationsUS(layerSpans(spans, "snapshot.decode"))))
	var sizes []float64
	for _, s := range enc {
		sizes = append(sizes, float64(s.N))
	}
	out.set("snapshot.bytes", median(sizes))
	out.detail("traced_windows", last.WI)
	return nil
}
