package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/sim"
)

var (
	suiteOnce sync.Once
	suiteVal  *bench.Suite
	suiteErr  error
)

// testSuite builds the benchmark's zoo once per test binary.
func testSuite(t *testing.T) *bench.Suite {
	t.Helper()
	suiteOnce.Do(func() { suiteVal, suiteErr = bench.NewSuite(suiteConfig()) })
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteVal
}

// Fakes with every combination of the optional model interfaces.
type plainModel struct{}

func (plainModel) Name() string                     { return "fake" }
func (plainModel) EstimateHR(*dalia.Window) float64 { return 70 }
func (plainModel) Ops() int64                       { return 1 }
func (plainModel) Params() int64                    { return 0 }

type batchModel struct{ plainModel }

func (batchModel) EstimateHRBatch(ws []dalia.Window, out []float64) {
	for i := range ws {
		out[i] = 70
	}
}

type clonerModel struct{ plainModel }

func (clonerModel) CloneEstimator() models.HREstimator { return clonerModel{} }

type batchClonerModel struct{ batchModel }

func (batchClonerModel) CloneEstimator() models.HREstimator { return batchClonerModel{} }

func interfaces(m models.HREstimator) (batch, clone bool) {
	_, batch = m.(models.BatchHREstimator)
	_, clone = m.(models.WorkerCloner)
	return
}

func TestDecoratorsKeepOptionalInterfaces(t *testing.T) {
	s := testSuite(t)
	led := NewLedger()
	for _, m := range []models.HREstimator{plainModel{}, batchModel{}, clonerModel{}, batchClonerModel{}, s.AT, s.Small, s.Big} {
		wantB, wantC := interfaces(m)
		d := traceModel(m, led)
		if b, c := interfaces(d); b != wantB || c != wantC {
			t.Errorf("%T: decorated batch/clone = %v/%v, want %v/%v", m, b, c, wantB, wantC)
		}
		if d.Name() != m.Name() || d.Ops() != m.Ops() || d.Params() != m.Params() {
			t.Errorf("%T: decorated identity differs", m)
		}
		if wantC {
			c := d.(models.WorkerCloner).CloneEstimator()
			if _, ok := c.(*tracedModel); ok {
				t.Errorf("%T: clone lost its optional interfaces", m)
			}
			if b, cc := interfaces(c); b != wantB || cc != wantC {
				t.Errorf("%T: decorated clone batch/clone = %v/%v, want %v/%v", m, b, cc, wantB, wantC)
			}
		}
	}
	if len(led.Spans()) != 0 {
		t.Errorf("wrapping recorded %d spans", len(led.Spans()))
	}
}

func testPlan(t *testing.T) *servePlan {
	s := testSuite(t)
	best := s.Profiles[0]
	for _, p := range s.Profiles {
		if p.MAE < best.MAE {
			best = p
		}
	}
	return &servePlan{
		suites: []*bench.Suite{s}, suite: s, best: best, windows: s.TestWindows,
		constraint: core.MAEConstraint(best.MAE), rng: rand.New(rand.NewPCG(1, 2)),
	}
}

func TestDecoratedLockstepServeIsBitwiseEqual(t *testing.T) {
	p := testPlan(t)
	plain, err := core.NewEngine(p.suite.Profiles, p.suite.Classifier)
	if err != nil {
		t.Fatal(err)
	}
	led := NewLedger()
	traced, _, err := tracedEngine(p.suite.Zoo, p.suite.Classifier, p.suite.ProfileRecords, p.suite.Sys, led)
	if err != nil {
		t.Fatal(err)
	}
	const n, ticks, flush = 40, 6, period / 2
	want, err := p.lockstepRun(plain, n, ticks, 0, flush, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.lockstepRun(traced, n, ticks, 0, flush, 7, func(fn func()) { led.Around("serve.tick", 0, fn) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("decorated lockstep serve run differs from the undecorated one")
	}
	spans := led.Spans()
	if len(layerSpans(spans, "tcn.big.batch")) == 0 || len(layerSpans(spans, "rf")) == 0 {
		t.Fatalf("ledger lacks model or rater spans: %d spans", len(spans))
	}
	checkLedger(t, spans, "serve.tick")
}

func TestDecoratedSimPrefixIsBitwiseEqual(t *testing.T) {
	s := testSuite(t)
	policy, err := s.BeliefPolicy()
	if err != nil {
		t.Fatal(err)
	}
	policy.GateBPM = simGateBPM
	p := &simPlan{seed: 3}
	su := simSetup{suite: s, policy: policy}
	if su.engine, err = core.NewEngine(s.Profiles, s.Classifier); err != nil {
		t.Fatal(err)
	}
	led := NewLedger()
	traced, _, err := tracedEngine(s.Zoo, s.Classifier, s.ProfileRecords, s.Sys, led)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = 1800.0
	var want, got sim.State
	if err := sim.RunState(p.config(su, su.engine), &want, prefix); err != nil {
		t.Fatal(err)
	}
	var runErr error
	led.Around("sim.segment", 0, func() { runErr = sim.RunState(p.config(su, traced), &got, prefix) })
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("decorated sim prefix differs from the undecorated one")
	}
	checkLedger(t, led.Spans(), "sim.segment")
}

// checkLedger asserts the ledger invariants on a real trace: children
// lie within their parent, self time is non-negative, and self plus the
// per-layer shares add up to every parent span.
func checkLedger(t *testing.T, spans []Span, parentLayer string) {
	t.Helper()
	for _, msg := range checkNesting(spans) {
		t.Error(msg)
	}
	kids := childIndex(spans)
	parents := layerSpans(spans, parentLayer)
	if len(parents) == 0 {
		t.Fatalf("no %s spans", parentLayer)
	}
	for _, ps := range parents {
		b := breakdown(ps, kids[ps.ID])
		sum := b.Self
		for _, v := range b.ByLayer {
			sum += v
		}
		if b.Self < 0 || math.Abs(sum-b.Total) > 1 {
			t.Errorf("%s %d: self %v, layers+self %v, span %v", parentLayer, ps.ID, b.Self, sum, b.Total)
		}
	}
}

func TestBreakdownSharesOverlappingChildren(t *testing.T) {
	parent := Span{ID: 1, Start: 0, End: 100}
	kids := []Span{
		{ID: 2, Parent: 1, Layer: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "b", Start: 20, End: 40},
		{ID: 4, Parent: 1, Layer: "a", Start: 60, End: 70},
	}
	b := breakdown(parent, kids)
	// a alone 10..20 and 60..70, a and b share 20..30, b alone 30..40.
	if b.ByLayer["a"] != 25 || b.ByLayer["b"] != 15 || b.Self != 60 || b.Total != 100 {
		t.Fatalf("breakdown = %+v", b)
	}
	if bad := checkNesting(append(kids, parent)); len(bad) != 0 {
		t.Fatalf("valid ledger reported: %v", bad)
	}
	outside := append([]Span{parent}, Span{ID: 5, Parent: 1, Layer: "a", Start: 90, End: 110})
	if bad := checkNesting(outside); len(bad) == 0 {
		t.Fatal("child outside its parent not reported")
	}
	if got := busyFrac(kids, 0, 100); got != 0.4 {
		t.Fatalf("busyFrac = %v, want 0.4", got)
	}
}

func TestScheduleStaggersSessions(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	const n, pool, from, dur = 300, 85, 10.0, 6.0
	plan := schedule(rng, n, pool, from, dur)
	if len(plan) != n*3 {
		t.Fatalf("%d arrivals, want %d (one per session per period)", len(plan), n*3)
	}
	last := map[int]arrival{}
	for i, a := range plan {
		if i > 0 && a.due < plan[i-1].due {
			t.Fatal("schedule not ordered by due time")
		}
		if a.due < from || a.due >= from+dur || a.win < 0 || a.win >= pool {
			t.Fatalf("arrival %+v out of range", a)
		}
		if prev, ok := last[a.sess]; ok {
			if math.Abs(a.due-prev.due-period) > 1e-9 || a.win != (prev.win+1)%pool {
				t.Fatalf("session %d: %+v after %+v", a.sess, a, prev)
			}
		}
		last[a.sess] = a
	}
	again := schedule(rand.New(rand.NewPCG(5, 6)), n, pool, from, dur)
	if !reflect.DeepEqual(plan, again) {
		t.Fatal("same seed, different schedule")
	}
}

func TestRungStatsOnSyntheticSchedule(t *testing.T) {
	// 1000 windows due 1 ms apart, 10 ms latency, except every 50th
	// window which failed (counted at the deadline).
	var ws []sample
	for i := 0; i < 1000; i++ {
		w := sample{due: float64(i) / 1000, latency: 0.010, good: true}
		if i%50 == 49 {
			w = sample{due: w.due, latency: deadline}
		}
		ws = append(ws, w)
	}
	r := rungStats(1000, 2000, 1, ws, []float64{0, 0.001})
	if r.Sent != 1000 || r.Good != 980 || r.Failed != 20 {
		t.Fatalf("counts %+v", r)
	}
	if r.P50MS != 10 || r.P99MS != deadline*1e3 {
		t.Fatalf("p50 %v p99 %v", r.P50MS, r.P99MS)
	}
	if math.Abs(r.Growth) > 1e-12 {
		t.Fatalf("flat latency grew at %v", r.Growth)
	}
	// 2 % failed against the 1 % limit.
	if math.Abs(r.Score-2) > 1e-9 {
		t.Fatalf("score %v, want 2", r.Score)
	}

	// Latency rising 0.5 s per second of due time is a growing backlog.
	ws = ws[:0]
	for i := 0; i < 1000; i++ {
		d := float64(i) / 1000
		ws = append(ws, sample{due: d, latency: 0.01 + 0.5*d, good: true})
	}
	r = rungStats(1000, 2000, 1, ws, nil)
	if math.Abs(r.Growth-0.5) > 1e-9 || math.Abs(r.Score-0.5/growthLimit) > 1e-9 {
		t.Fatalf("growth %v score %v", r.Growth, r.Score)
	}
}

func TestLadderCapacity(t *testing.T) {
	rung := func(rate, score float64) rungResult { return rungResult{Rate: rate, Score: score} }
	cases := []struct {
		name  string
		rungs []rungResult
		want  float64
	}{
		{"all pass", []rungResult{rung(100, 0.1), rung(200, 0.5)}, 200},
		{"none pass", []rungResult{rung(100, 4), rung(200, 8)}, 25},
		// log-score crossing: from 0.5 to 2 is halfway in log space.
		{"crossing", []rungResult{rung(100, 0.1), rung(200, 0.5), rung(300, 2)}, 250},
		// A failing rung below a passing one does not cap the ladder.
		{"highest pass", []rungResult{rung(100, 0.1), rung(200, 1.5), rung(300, 0.5), rung(400, 2)}, 350},
	}
	for _, c := range cases {
		if got := ladderCapacity(c.rungs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: capacity %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLatencyIsTimedFromDue(t *testing.T) {
	p := testPlan(t)
	eng, err := core.NewEngine(p.suite.Profiles, p.suite.Classifier)
	if err != nil {
		t.Fatal(err)
	}
	vc := serve.NewVirtualClock()
	e, err := serve.Open(p.config(eng, vc))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := e.NewSession("u")
	if err != nil {
		t.Fatal(err)
	}
	vc.Advance(1.0)
	// The window was due 0.25 s ago: a late generator submits it now.
	if st := s.Submit(&p.windows[0], 0.75); st != serve.SubmitOK {
		t.Fatalf("submit: %v", st)
	}
	e.Tick()
	res := s.Drain()
	if len(res) != 1 || math.Abs(res[0].Latency-0.25) > 1e-12 {
		t.Fatalf("results %+v, want one with latency 0.25 s", res)
	}
}

// The metric names and units the benchmark prints are the ones
// BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, names []string, units map[string]string, declared []struct{ Name, Unit string }) {
		if len(declared) != len(names) || len(units) != len(names) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(declared), len(names))
		}
		for i, d := range declared {
			if i < len(names) && (d.Name != names[i] || d.Unit != units[d.Name]) {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, d.Name, d.Unit, names[i], units[names[i]])
			}
		}
	}
	check("end_to_end", endToEndMetrics, endToEndUnits, spec.EndToEnd)
	check("per_layer", perLayerMetrics, perLayerUnits, spec.PerLayer)
}

func TestHostSpeedScalesBySlowdown(t *testing.T) {
	h := newHostSpeed(2)
	if n := len(h.Seen); n != calibWindow {
		t.Fatalf("%d probe measurements at the start, want %d", n, calibWindow)
	}
	s := h.slowdown()
	if !(s > 0) || math.IsInf(s, 0) {
		t.Fatalf("slowdown %v, want a positive finite ratio", s)
	}
	// scale probes once more and divides by the median of the latest
	// calibWindow probes over the reference time, and by the share of
	// busy time not stolen during the slice.
	got := h.scale(1)
	want := calibRefSeconds / median(h.Seen[len(h.Seen)-calibWindow:]) * (1 - h.Stolen[len(h.Stolen)-1])
	if n := len(h.Seen); n != calibWindow+2 {
		t.Fatalf("%d probe measurements after two slices, want %d", n, calibWindow+2)
	}
	if math.Abs(got-want) > 1e-12*want {
		t.Errorf("scale(1) = %v, want %v", got, want)
	}
	for _, f := range h.Stolen {
		if f < 0 || f > 0.9 {
			t.Errorf("stolen share %v outside [0, 0.9]", f)
		}
	}
}
