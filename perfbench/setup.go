package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/models/tcn"
)

// setupRepeats is how many times a run builds its set-up; setup_s is the
// median, so one slow build does not move it.
const setupRepeats = 3

// suiteConfig is the zoo every suite workload runs on: the quick
// pipeline deployed the way DefaultSuiteConfig deploys the full one, with
// int8 TimePPG networks. The training seed stays fixed, so the zoo is the
// same for every workload seed. No cache: every set-up trains.
func suiteConfig() bench.SuiteConfig {
	cfg := bench.QuickSuiteConfig()
	cfg.Quantized = true
	return cfg
}

// setupStages are the suite-build stages, each opened by the progress
// line it starts with and closed by the next stage's (the last by the
// return of bench.NewSuite).
var setupStages = []struct{ metric, prefix string }{
	{"setup.dataset_s", ""}, // from the call to the first progress line
	{"setup.rf_train_s", "training difficulty detector"},
	{"setup.tcn_small_s", "training " + tcn.SmallName},
	{"setup.tcn_big_s", "training " + tcn.BigName}, // includes quantization
	{"setup.records_s", "building records"},        // records, profiling, reports
}

// buildSuites builds the suite setupRepeats times and records setup_s and
// the per-stage times (medians) in out, each build's times scaled to the
// reference host speed (calib.go) by the slowdown probed right after
// it. It returns every suite built: the
// builds are bitwise identical, but each holds its weights and buffers at
// other addresses, and the speed of the serial int8 kernels differs with
// placement, so the workloads spread their timed work over all of them.
func buildSuites(out *outcome) ([]*bench.Suite, error) {
	totals := make([]float64, 0, setupRepeats)
	stages := make([][]float64, len(setupStages))
	var suites []*bench.Suite
	host := newHostSpeed(runtime.NumCPU())
	for r := 0; r < setupRepeats; r++ {
		cfg := suiteConfig()
		start := time.Now()
		marks := make([]time.Time, len(setupStages))
		marks[0] = start
		cfg.Progress = func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			for i := 1; i < len(setupStages); i++ {
				if marks[i].IsZero() && strings.HasPrefix(line, setupStages[i].prefix) {
					marks[i] = time.Now()
				}
			}
		}
		s, err := bench.NewSuite(cfg)
		if err != nil {
			return nil, fmt.Errorf("building suite: %w", err)
		}
		end := time.Now()
		slow := host.slowdown()
		totals = append(totals, end.Sub(start).Seconds()/slow)
		for i := range setupStages {
			next := end
			if i+1 < len(marks) {
				next = marks[i+1]
			}
			if marks[i].IsZero() || next.IsZero() {
				return nil, fmt.Errorf("suite build did not report stage %q", setupStages[i].prefix)
			}
			stages[i] = append(stages[i], next.Sub(marks[i]).Seconds()/slow)
		}
		suites = append(suites, s)
		// Collect the build's garbage before the next one, so the peak
		// resident set counts the live suites, not when the collector
		// happened to run.
		runtime.GC()
	}
	out.set("setup_s", median(totals))
	out.detail("setup_runs_s", totals)
	for i, st := range setupStages {
		out.set(st.metric, median(stages[i]))
	}
	return suites, nil
}
