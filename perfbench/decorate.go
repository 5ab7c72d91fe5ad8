package main

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dalia"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/models/at"
	"repro/internal/models/tcn"
)

// layerOf names the ledger layer of a zoo model.
func layerOf(m models.HREstimator) string {
	switch m.Name() {
	case at.ModelName:
		return "at"
	case tcn.SmallName:
		return "tcn.small"
	case tcn.BigName:
		return "tcn.big"
	}
	return "model." + m.Name()
}

// tracedModel records a span around every call into the wrapped
// estimator: layer+".serial" for EstimateHR, layer+".batch" for
// EstimateHRBatch. It is wrapped by one of the types below so that the
// decorated model implements exactly the optional interfaces of the
// model it wraps — serve's batching and worker cloning, and eval's
// chunking, then take the same paths as without tracing.
type tracedModel struct {
	inner models.HREstimator
	layer string
	led   *Ledger
}

func (m *tracedModel) Name() string  { return m.inner.Name() }
func (m *tracedModel) Ops() int64    { return m.inner.Ops() }
func (m *tracedModel) Params() int64 { return m.inner.Params() }

func (m *tracedModel) EstimateHR(w *dalia.Window) float64 {
	t0 := m.led.Now()
	hr := m.inner.EstimateHR(w)
	m.led.Add(m.layer+".serial", t0, m.led.Now(), 1)
	return hr
}

func (m *tracedModel) estimateBatch(ws []dalia.Window, out []float64) {
	t0 := m.led.Now()
	m.inner.(models.BatchHREstimator).EstimateHRBatch(ws, out)
	m.led.Add(m.layer+".batch", t0, m.led.Now(), len(ws))
}

func (m *tracedModel) clone() models.HREstimator {
	return traceModel(m.inner.(models.WorkerCloner).CloneEstimator(), m.led)
}

type tracedBatch struct{ *tracedModel }

func (m tracedBatch) EstimateHRBatch(ws []dalia.Window, out []float64) { m.estimateBatch(ws, out) }

type tracedCloner struct{ *tracedModel }

func (m tracedCloner) CloneEstimator() models.HREstimator { return m.clone() }

type tracedBatchCloner struct{ *tracedModel }

func (m tracedBatchCloner) EstimateHRBatch(ws []dalia.Window, out []float64) {
	m.estimateBatch(ws, out)
}
func (m tracedBatchCloner) CloneEstimator() models.HREstimator { return m.clone() }

// traceModel decorates m with span recording into led.
func traceModel(m models.HREstimator, led *Ledger) models.HREstimator {
	base := &tracedModel{inner: m, layer: layerOf(m), led: led}
	_, batch := m.(models.BatchHREstimator)
	_, clone := m.(models.WorkerCloner)
	switch {
	case batch && clone:
		return tracedBatchCloner{base}
	case batch:
		return tracedBatch{base}
	case clone:
		return tracedCloner{base}
	}
	return base
}

// tracedRater records an "rf" span around every difficulty call and
// counts the distinct windows it was asked about.
type tracedRater struct {
	inner core.DifficultyRater
	led   *Ledger

	mu    sync.Mutex
	calls int
	seen  map[*dalia.Window]struct{}
}

func traceRater(r core.DifficultyRater, led *Ledger) *tracedRater {
	return &tracedRater{inner: r, led: led, seen: map[*dalia.Window]struct{}{}}
}

func (r *tracedRater) DifficultyID(w *dalia.Window) int {
	t0 := r.led.Now()
	id := r.inner.DifficultyID(w)
	r.led.Add("rf", t0, r.led.Now(), 1)
	r.mu.Lock()
	r.calls++
	r.seen[w] = struct{}{}
	r.mu.Unlock()
	return id
}

// reset forgets the calls counted so far.
func (r *tracedRater) reset() {
	r.mu.Lock()
	r.calls = 0
	r.seen = map[*dalia.Window]struct{}{}
	r.mu.Unlock()
}

// counts returns the calls made and the distinct windows seen.
func (r *tracedRater) counts() (calls, unique int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls, len(r.seen)
}

// tracedEngine rebuilds the decision engine over a decorated zoo: the
// three models are wrapped, the profiles re-derived with core.ProfileConfigs
// on the suite's profiling records (their predictions are keyed by model
// name, so the profiles are the suite's own), and the engine rates
// difficulty through a decorated forest.
func tracedEngine(zoo *core.Zoo, rater core.DifficultyRater, recs []core.WindowRecord, sys *hw.System, led *Ledger) (*core.Engine, *tracedRater, error) {
	var wrapped []models.HREstimator
	for _, m := range zoo.Models() {
		wrapped = append(wrapped, traceModel(m, led))
	}
	tz, err := core.NewZoo(wrapped...)
	if err != nil {
		return nil, nil, fmt.Errorf("decorated zoo: %w", err)
	}
	profiles, err := core.ProfileConfigs(tz.EnumerateConfigs(), recs, sys)
	if err != nil {
		return nil, nil, fmt.Errorf("decorated profiles: %w", err)
	}
	tr := traceRater(rater, led)
	eng, err := core.NewEngine(profiles, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("decorated engine: %w", err)
	}
	return eng, tr, nil
}
