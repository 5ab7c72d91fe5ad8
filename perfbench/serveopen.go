package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/serve"
)

// serve-open: open-loop wall-clock serving. Users are independent, so the
// loop is open: every session submits one window per 2 s period at its
// own staggered phase whether or not the engine keeps up, and latency is
// timed from the window's due time. The offered rate is set by the
// session count and steps through a fixed ladder.

const (
	period = hw.DefaultPeriodSeconds
	// deadline is the engine's result deadline (its default, one period).
	deadline = period
	// lightRate is the rate the latency figures are read at, well under
	// the knee of the reference host (see README.md); busyRate loads the
	// traced rung and the warm-up.
	lightRate = 300.0
	busyRate  = 800.0
	// failLimit is the largest failed share a rung may have and pass.
	failLimit = 0.01
	// growthLimit is the fastest latency growth (seconds per second) a
	// rung may show and pass: at this pace a window would wait out the
	// deadline within 20 s, so the backlog is growing.
	growthLimit = 0.1
)

// serveLadder is the rate ladder in windows/s, ascending; its first rung
// is the light rate the latency figures are read at. The other rungs are
// rates at the reference host speed (calib.go): a run offers them
// divided by the host's slowdown at its start, so the ladder brackets
// the knee on a fast host as on a slow one.
var serveLadder = []float64{lightRate, 1400, 1600, 1800, 2000, 2200, 2400}

// rungShare weights each rung's share of the timed phase. The light
// rung's share on each suite build is long enough for its p95 to rest on
// about fifty windows.
var rungShare = []float64{10, 3.33, 3.33, 3.33, 3.33, 3.33, 3.33}

type arrival struct {
	due  float64 // seconds on the engine clock
	sess int
	win  int // index into the window pool
}

// schedule lays out n sessions over [from, from+dur): session i has a
// phase drawn uniformly within the period and starts at a random window
// of the pool, then submits the following windows one period apart.
func schedule(rng *rand.Rand, n, pool int, from, dur float64) []arrival {
	var out []arrival
	for i := 0; i < n; i++ {
		phase := rng.Float64() * period
		w := rng.IntN(pool)
		for t := from + phase; t < from+dur; t += period {
			out = append(out, arrival{due: t, sess: i, win: w % pool})
			w++
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].due != out[b].due {
			return out[a].due < out[b].due
		}
		return out[a].sess < out[b].sess
	})
	return out
}

// rungResult is one ladder rung.
type rungResult struct {
	Rate     float64 `json:"rate_wps"`
	Sessions int     `json:"sessions"`
	Seconds  float64 `json:"seconds"`
	Sent     int     `json:"sent"`
	Good     int     `json:"good"`
	Failed   int     `json:"failed"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
	// Growth is how fast latency rises across the rung, in seconds per
	// second: a backlog that grows makes later windows wait longer.
	Growth float64 `json:"latency_growth"`
	// GoodputWPS is the rate of windows due in the second half of the
	// rung that finished un-degraded within the deadline.
	GoodputWPS float64 `json:"goodput_wps"`
	LateP99MS  float64 `json:"loadgen_late_p99_ms"`
	// Score is the rung's worst limit ratio; ≤ 1 passes.
	Score float64 `json:"score"`
}

// sample is one sent window: when it was due, its latency from then
// (at least the deadline when it failed), and whether it finished
// un-degraded.
type sample struct {
	due, latency float64
	good         bool
}

// rungStats turns one rung's windows, ordered by due time, and the
// generator's lateness into the rung's figures.
func rungStats(rate float64, sessions int, dur float64, ws []sample, late []float64) rungResult {
	r := rungResult{Rate: rate, Sessions: sessions, Seconds: dur, Sent: len(ws)}
	if len(ws) == 0 {
		r.Score = math.Inf(1)
		return r
	}
	from := ws[0].due
	lat := make([]float64, len(ws))
	secondHalf := 0
	for i, w := range ws {
		lat[i] = w.latency
		if w.good {
			r.Good++
			if w.due-from >= dur/2 {
				secondHalf++
			}
		}
	}
	r.Failed = r.Sent - r.Good
	r.P50MS = quantile(lat, 0.50) * 1e3
	r.P95MS = quantile(lat, 0.95) * 1e3
	r.P99MS = quantile(lat, 0.99) * 1e3
	r.LateP99MS = quantile(late, 0.99) * 1e3
	r.GoodputWPS = float64(secondHalf) / (dur / 2)
	r.Growth = latencyGrowth(ws)
	r.Score = math.Max(r.P99MS/1e3/deadline, math.Max(
		ratio(float64(r.Failed), float64(r.Sent))/failLimit, r.Growth/growthLimit))
	return r
}

// latencyGrowth is the least-squares slope of latency over due time for
// the un-degraded windows due after the rung's first quarter (the engine
// starts each rung empty). Failed windows weigh in through the failure
// limit instead.
func latencyGrowth(ws []sample) float64 {
	var xs, ys []float64
	for _, w := range ws[len(ws)/4:] {
		if w.good {
			xs = append(xs, w.due)
			ys = append(ys, w.latency)
		}
	}
	return slope(xs, ys)
}

// ladderCapacity is the highest offered rate that passes every limit:
// the highest passing rung, interpolated on log(score) towards the
// failing rung above it so the figure moves smoothly rather than in
// ladder steps. A ladder that passes at its top reports the top rate;
// one that passes nowhere scales its first rate down by its score.
func ladderCapacity(rungs []rungResult) float64 {
	k := -1
	for i, r := range rungs {
		if r.Score <= 1 {
			k = i
		}
	}
	switch {
	case k < 0:
		return rungs[0].Rate / rungs[0].Score
	case k == len(rungs)-1:
		return rungs[k].Rate
	}
	lo, hi := rungs[k], rungs[k+1]
	ls := math.Log(math.Max(lo.Score, 1e-9))
	f := -ls / (math.Log(hi.Score) - ls)
	return lo.Rate + (hi.Rate-lo.Rate)*f
}

// servePlan holds what every serve run shares.
type servePlan struct {
	suites     []*bench.Suite
	suite      *bench.Suite // the last one built
	constraint core.Constraint
	best       core.Profile
	windows    []dalia.Window
	rng        *rand.Rand
}

func newServePlan(out *outcome, seed uint64) (*servePlan, error) {
	suites, err := buildSuites(out)
	if err != nil {
		return nil, err
	}
	suite := suites[len(suites)-1]
	best := suite.Profiles[0]
	for _, p := range suite.Profiles {
		if p.MAE < best.MAE {
			best = p
		}
	}
	return &servePlan{
		suites:     suites,
		suite:      suite,
		constraint: core.MAEConstraint(best.MAE),
		best:       best,
		windows:    suite.TestWindows,
		rng:        rand.New(rand.NewPCG(seed, 0x5e7e)),
	}, nil
}

func (p *servePlan) config(eng *core.Engine, clock serve.Clock) serve.Config {
	return serve.Config{Engine: eng, System: p.suite.Sys, Constraint: p.constraint, Clock: clock}
}

// wallEngine opens an engine on clk over one suite's zoo and warms it up
// with an unmeasured busy rung: worker clones, GEMM panels, heap growth.
func (p *servePlan) wallEngine(out *outcome, s *bench.Suite, clk *serve.WallClock) (*serve.Engine, error) {
	eng, err := core.NewEngine(s.Profiles, s.Classifier)
	if err != nil {
		return nil, err
	}
	e, err := serve.Open(p.config(eng, clk))
	if err != nil {
		return nil, err
	}
	attempted := out.Attempted
	if _, err := p.runRung(out, e, clk, "warm", busyRate, 1, nil); err != nil {
		e.Close()
		return nil, err
	}
	out.Attempted = attempted // the warm-up's checks count, its windows do not
	return e, nil
}

// runRung offers rate windows/s to e for dur seconds and waits for the
// backlog to drain. Sessions are registered for the rung and detached
// after it, so the engine (and its warm worker clones) carries over
// between rungs while the sessions do not. A non-nil led receives a
// "serve.submit" span per Submit call.
func (p *servePlan) runRung(out *outcome, e *serve.Engine, clk *serve.WallClock, tag string, rate, dur float64, led *Ledger) (rungResult, error) {
	ws, late, err := p.offer(out, e, clk, tag, rate, dur, led)
	if err != nil {
		return rungResult{}, err
	}
	return rungStats(rate, max(1, int(rate*period+0.5)), dur, ws, late), nil
}

// offer runs one rung's schedule and returns its windows, ordered by due
// time, and the generator's lateness per submission.
func (p *servePlan) offer(out *outcome, e *serve.Engine, clk *serve.WallClock, tag string, rate, dur float64, led *Ledger) ([]sample, []float64, error) {
	n := max(1, int(rate*period+0.5))
	sessions := make([]*serve.Session, n)
	for i := range sessions {
		s, err := e.NewSession(fmt.Sprintf("%s-u%05d", tag, i))
		if err != nil {
			return nil, nil, err
		}
		sessions[i] = s
	}
	from := clk.Now() + 0.05
	plan := schedule(p.rng, n, len(p.windows), from, dur)

	// Generator: one goroutine, submitting each window at its due time.
	late := make([]float64, 0, len(plan))
	var refused []arrival
	for _, a := range plan {
		now := clk.Now()
		if wait := a.due - now; wait > 0 {
			time.Sleep(time.Duration(wait * 1e9))
			now = clk.Now()
		}
		late = append(late, now-a.due)
		var st serve.SubmitStatus
		if led != nil {
			t0 := led.Now()
			st = sessions[a.sess].Submit(&p.windows[a.win], a.due)
			led.Add("serve.submit", t0, led.Now(), 1)
		} else {
			st = sessions[a.sess].Submit(&p.windows[a.win], a.due)
		}
		if st != serve.SubmitOK {
			refused = append(refused, a)
		}
	}

	// Drain: every admitted window finishes or expires within about a
	// deadline; allow generous slack before declaring the engine stuck.
	limit := time.Now().Add(30 * time.Second)
	for e.Pending() > 0 {
		if err := e.Err(); err != nil {
			return nil, nil, err
		}
		if time.Now().After(limit) {
			return nil, nil, fmt.Errorf("rung %s: %d windows still pending after drain", tag, e.Pending())
		}
		time.Sleep(2 * time.Millisecond)
	}

	var ws []sample
	for _, s := range sessions {
		for _, r := range s.Drain() {
			w := sample{due: r.Arrival, latency: r.Latency}
			if r.Outcome == serve.OutcomeFull || r.Outcome == serve.OutcomeSimple {
				w.good = true
				out.check(!math.IsNaN(r.HR) && !math.IsInf(r.HR, 0) && models.ClampHR(r.HR) == r.HR,
					"serve %s: session %s window %d: HR %v outside the ClampHR range", tag, s.ID(), r.Seq, r.HR)
			} else {
				w.latency = math.Max(w.latency, deadline)
			}
			ws = append(ws, w)
		}
		st := s.Stats()
		out.check(st.Submitted == st.Accepted+st.Dropped+st.Rejected,
			"serve %s: session %s: submitted %d != accepted %d + dropped %d + rejected %d",
			tag, s.ID(), st.Submitted, st.Accepted, st.Dropped, st.Rejected)
		out.check(st.Accepted == st.Finished(),
			"serve %s: session %s: accepted %d != finished %d after drain", tag, s.ID(), st.Accepted, st.Finished())
		out.check(st.ActiveConfig == p.best.Name(),
			"serve %s: session %s serves %q, not the most accurate profile %q", tag, s.ID(), st.ActiveConfig, p.best.Name())
		if _, err := e.Detach(s.ID()); err != nil {
			return nil, nil, fmt.Errorf("detaching %s: %w", s.ID(), err)
		}
	}
	// Windows refused at admission have no result: they count as failed.
	for _, a := range refused {
		ws = append(ws, sample{due: a.due, latency: deadline})
	}
	out.check(len(ws) == len(plan), "serve %s: %d windows sent, %d accounted for", tag, len(plan), len(ws))
	out.Attempted += len(plan)
	sort.Slice(ws, func(i, j int) bool { return ws[i].due < ws[j].due })
	return ws, late, nil
}

func runServeOpen(rc runConfig) (*outcome, error) {
	out := &outcome{}
	p, err := newServePlan(out, rc.Seed)
	if err != nil {
		return nil, err
	}
	if rc.Trace {
		return out, p.traced(out, rc)
	}
	eng, err := core.NewEngine(p.suite.Profiles, p.suite.Classifier)
	if err != nil {
		return nil, err
	}
	if err := p.checkBatchInvariance(out, eng, rc.Seed); err != nil {
		return nil, err
	}

	// One clock for every engine keeps all due times on one timeline.
	clk := serve.NewWallClock()
	engines := make([]*serve.Engine, len(p.suites))
	for i, s := range p.suites {
		if engines[i], err = p.wallEngine(out, s, clk); err != nil {
			return nil, err
		}
		defer engines[i].Close()
	}
	total := 0.0
	for _, s := range rungShare {
		total += s
	}
	// Every rung is followed by a host-speed probe; the engines are idle
	// then, their backlog drained. The rungs are too short to scale one
	// by one, so the capacity is scaled by the median slowdown of the
	// run (calib.go): an offered rate loads a host that is s times
	// slower than the reference as s times that rate would load the
	// reference.
	host := newHostSpeed(runtime.NumCPU())
	slow := []float64{host.current()}
	rungs := make([]rungResult, len(serveLadder))
	for k, rate := range serveLadder {
		dur := rc.Seconds * rungShare[k] / total
		if k > 0 {
			rate /= slow[0]
			r, err := p.runRung(out, engines[len(engines)-1], clk, fmt.Sprintf("r%d", k), rate, dur, nil)
			if err != nil {
				return nil, err
			}
			slow = append(slow, host.slowdown())
			rungs[k] = r
			continue
		}
		// The light rung runs a share on every suite build's engine. Its
		// latency figures are the medians over the builds, so they are
		// not one placement's luck; its pass verdict pools the windows.
		var ws []sample
		var late, p50s, p95s []float64
		for i, e := range engines {
			part, lateI, err := p.offer(out, e, clk, fmt.Sprintf("r0s%d", i), rate, dur/float64(len(engines)), nil)
			if err != nil {
				return nil, err
			}
			r := rungStats(rate, int(rate*period+0.5), dur/float64(len(engines)), part, lateI)
			p50s, p95s = append(p50s, r.P50MS), append(p95s, r.P95MS)
			ws = append(ws, part...)
			late = append(late, lateI...)
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i].due < ws[j].due })
		rungs[k] = rungStats(rate, int(rate*period+0.5), dur, ws, late)
		slow = append(slow, host.slowdown())
		out.detail("p50_ms", median(p50s))
		out.detail("p95_ms", median(p95s))
		out.detail("light_p50_ms_per_build", p50s)
		out.detail("light_p95_ms_per_build", p95s)
	}
	out.set("capacity_wps", ladderCapacity(rungs)*median(slow))
	out.detail("raw_capacity_wps", ladderCapacity(rungs))
	out.detail("probe_s", host.Seen)
	out.detail("stolen", host.Stolen)
	out.detail("ladder", rungs)
	out.detail("config", p.best.Name())
	return out, nil
}

// lockstepRun replays the open-loop schedule of n sessions on a virtual
// clock for the given number of ticks: the clock advances flush seconds
// per tick and each session submits when its due time falls in the
// interval, as the wall-clock pump would see it. tick, when non-nil,
// wraps every Engine.Tick call. It returns every session's results and
// final counters.
func (p *servePlan) lockstepRun(eng *core.Engine, n, ticks, batch int, flush float64, seed uint64, tick func(fn func())) (any, error) {
	vc := serve.NewVirtualClock()
	cfg := p.config(eng, vc)
	cfg.BatchSize = batch
	e, err := serve.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	sessions := make([]*serve.Session, n)
	for i := range sessions {
		if sessions[i], err = e.NewSession(fmt.Sprintf("ls-u%05d", i)); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x10c5))
	plan := schedule(rng, n, len(p.windows), 0, float64(ticks)*flush)
	next := 0
	for k := 1; k <= ticks; k++ {
		end := float64(k) * flush
		for next < len(plan) && plan[next].due < end {
			a := plan[next]
			sessions[a.sess].Submit(&p.windows[a.win], vc.Now())
			next++
		}
		if tick != nil {
			tick(e.Tick)
		} else {
			e.Tick()
		}
		vc.Advance(flush)
	}
	for e.Pending() > 0 {
		e.Tick()
		vc.Advance(flush)
	}
	type sessOut struct {
		Results []serve.WindowResult
		Stats   serve.SessionStats
	}
	res := make([]sessOut, n)
	for i, s := range sessions {
		res[i] = sessOut{s.Drain(), s.Stats()}
	}
	return res, nil
}

// checkBatchInvariance replays a short lockstep schedule — every session
// submitting once per tick, so ticks carry full batches — at the default
// batch size and at BatchSize 1; the results must be bitwise equal.
func (p *servePlan) checkBatchInvariance(out *outcome, eng *core.Engine, seed uint64) error {
	const n, ticks = 32, 3
	wide, err := p.lockstepRun(eng, n, ticks, 0, period, seed, nil)
	if err != nil {
		return err
	}
	serial, err := p.lockstepRun(eng, n, ticks, 1, period, seed, nil)
	if err != nil {
		return err
	}
	out.Attempted++
	out.check(reflect.DeepEqual(wide, serial), "serve lockstep: default batch size and BatchSize 1 disagree")
	return nil
}

// traced is the serve-open traced run: the decorated zoo under a
// lockstep pass at the busy session count (Engine.Tick spans, with the
// same pass untraced for the overhead), a wall-clock busy rung (Submit,
// batch and model spans), and a serial TimePPG-Big probe.
func (p *servePlan) traced(out *outcome, rc runConfig) error {
	led := NewLedger()
	out.Spans = led
	eng, rater, err := tracedEngine(p.suite.Zoo, p.suite.Classifier, p.suite.ProfileRecords, p.suite.Sys, led)
	if err != nil {
		return err
	}
	plain, err := core.NewEngine(p.suite.Profiles, p.suite.Classifier)
	if err != nil {
		return err
	}

	// Lockstep pass: one period of the busy schedule, ticked every flush
	// interval, untraced and traced in alternation. The ledger keeps the
	// last traced pass.
	const flush, ticks = 0.005, int(period / 0.005)
	n := int(busyRate * period)
	if _, err := p.lockstepRun(plain, n, ticks/8, 0, flush, rc.Seed, nil); err != nil { // warm-up
		return err
	}
	var ratios []float64
	for i := 0; i < tracePairs; i++ {
		t0 := time.Now()
		want, err := p.lockstepRun(plain, n, ticks, 0, flush, rc.Seed, nil)
		if err != nil {
			return err
		}
		untraced := time.Since(t0)
		led.reset()
		t0 = time.Now()
		got, err := p.lockstepRun(eng, n, ticks, 0, flush, rc.Seed, func(fn func()) { led.Around("serve.tick", 0, fn) })
		if err != nil {
			return err
		}
		ratios = append(ratios, time.Since(t0).Seconds()/untraced.Seconds())
		out.Attempted++
		out.check(reflect.DeepEqual(want, got), "serve trace: decorated lockstep run differs from the undecorated one")
	}
	out.set("trace.overhead_frac", median(ratios)-1)

	spans := led.Spans()
	kids := childIndex(spans)
	var tickMS, selfMS []float64
	for _, t := range spans {
		if t.Layer != "serve.tick" {
			continue
		}
		b := breakdown(t, kids[t.ID])
		sum := b.Self
		for _, v := range b.ByLayer {
			sum += v
		}
		out.check(math.Abs(sum-b.Total) < 1, "serve trace: tick %d ledger %v ns != span %v ns", t.ID, sum, b.Total)
		tickMS = append(tickMS, b.Total/1e6)
		selfMS = append(selfMS, b.Self/1e6)
	}
	out.set("serve.tick_ms.p50", median(tickMS))
	out.set("serve.tick_self_ms.p50", median(selfMS))
	for _, msg := range checkNesting(spans) {
		out.check(false, "serve trace: %s", msg)
	}

	// Wall-clock busy rung on the decorated engine.
	clk := serve.NewWallClock()
	e, err := serve.Open(p.config(eng, clk))
	if err != nil {
		return err
	}
	defer e.Close()
	if _, err := p.runRung(out, e, clk, "warm", busyRate, 1.5, nil); err != nil {
		return err
	}
	rater.reset()
	from := led.Now()
	r, err := p.runRung(out, e, clk, "busy", busyRate, rc.Seconds/3, led)
	if err != nil {
		return err
	}
	to := led.Now()
	out.detail("busy", r)
	calls, unique := rater.counts()
	out.set("rf.calls_per_window", ratio(float64(calls), float64(r.Sent)))
	out.set("rf.unique_frac", ratio(float64(unique), float64(calls)))
	out.set("loadgen.late_ms.p99", r.LateP99MS)

	phase := between(led.Spans(), from, to)
	var infer []Span
	var perWin, batchN []float64
	for _, s := range phase {
		switch s.Layer {
		case "at.serial", "tcn.small.serial", "tcn.big.serial", "tcn.small.batch", "tcn.big.batch":
			infer = append(infer, s)
			batchN = append(batchN, float64(s.N))
		}
		if s.Layer == "tcn.big.batch" {
			perWin = append(perWin, float64(s.Dur())/1e3/float64(s.N))
		}
	}
	out.set("tcn.big.batch_us_per_window", median(perWin))
	out.set("serve.batch_windows.mean", mean(batchN))
	out.set("serve.infer_busy_frac", busyFrac(infer, from, to))
	out.set("serve.submit_us.p50", median(durationsUS(layerSpans(phase, "serve.submit"))))
	out.set("rf.classify_us.p50", median(durationsUS(layerSpans(phase, "rf"))))
	out.set("at.estimate_us.p50", median(durationsUS(layerSpans(phase, "at.serial"))))

	// Serial TimePPG-Big: the cost of one window outside a batch, in int8
	// as deployed and, for the precision comparison, in float32.
	int8Big := traceModel(p.suite.Big, led)
	out.set("tcn.big.serial_us.p50", serialProbe(led, int8Big, p.windows))
	floatBig := p.suite.Big.Clone()
	floatBig.UseQuantized = false
	out.detail("tcn.big.float32_serial_us.p50", serialProbe(led, traceModel(floatBig, led), p.windows))
	ws := p.windows[:32]
	hr := make([]float64, len(ws))
	for _, m := range []struct {
		name string
		est  models.HREstimator
	}{{"int8", int8Big}, {"float32", traceModel(floatBig, led)}} {
		b := m.est.(models.BatchHREstimator)
		b.EstimateHRBatch(ws, hr) // warm-up
		from := led.Now()
		for i := 0; i < 4; i++ {
			b.EstimateHRBatch(ws, hr)
		}
		var perWin []float64
		for _, s := range layerSpans(between(led.Spans(), from, led.Now()), "tcn.big.batch") {
			perWin = append(perWin, float64(s.Dur())/1e3/float64(s.N))
		}
		out.detail("tcn.big."+m.name+"_batch32_us_per_window", median(perWin))
	}
	return nil
}

// serialProbe times 24 single-window calls (after two warm-up calls) and
// returns their median in microseconds.
func serialProbe(led *Ledger, m models.HREstimator, ws []dalia.Window) float64 {
	for i := 0; i < 2; i++ {
		m.EstimateHR(&ws[i])
	}
	from := led.Now()
	for i := 0; i < 24; i++ {
		m.EstimateHR(&ws[i%len(ws)])
	}
	return median(durationsUS(layerSpans(between(led.Spans(), from, led.Now()), layerOf(m)+".serial")))
}

// between returns the root spans that lie within [from, to].
func between(spans []Span, from, to int64) []Span {
	var out []Span
	for _, s := range spans {
		if s.Parent == 0 && s.Start >= from && s.End <= to {
			out = append(out, s)
		}
	}
	return out
}

// layerSpans returns the spans of one layer.
func layerSpans(spans []Span, layer string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Layer == layer {
			out = append(out, s)
		}
	}
	return out
}
