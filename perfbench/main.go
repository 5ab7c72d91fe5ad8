// Command perfbench is the repository benchmark: three workloads on the
// real int8 quick zoo (AT, TimePPG-Small/Big, the RF difficulty forest),
// driven only through the public APIs of bench, core, serve, sim and
// fleet.
//
//	perfbench --workload serve-open|sim-day|fleet-day --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics with tracing off; with
// --trace 1 it runs the same workload through span-recording decorators
// and reports the per-layer ledger instead. Either way the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// preceded by one "perfbench:" line holding the host fingerprint, the run
// settings and the workload's detail figures. Every output check that
// fails is counted in "failed" and makes the command exit non-zero. See
// README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run produced.
type outcome struct {
	Attempted int
	// Failed counts operations that errored or failed an output check;
	// Problems describes each check failure.
	Failed   int
	Problems []string
	Metrics  map[string]metric
	// Detail is the workload's extra figures (per-rung tables, raw
	// counts), printed with the run settings for later inspection.
	Detail map[string]any
	// Spans is the traced run's ledger, written out at the end.
	Spans *Ledger
}

// set records a metric. A per-layer figure with no samples (NaN) reads
// 0, like a layer the workload never enters; an end-to-end figure must
// be finite.
func (o *outcome) set(name string, v float64) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		_, e2e := endToEndUnits[name]
		o.check(!e2e, "metric %s is %v", name, v)
		v = 0
	}
	o.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (o *outcome) detail(name string, v any) {
	if o.Detail == nil {
		o.Detail = map[string]any{}
	}
	o.Detail[name] = v
}

// check records one output check: a false ok counts as a failed
// operation and is reported on standard error.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	o.Failed++
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// runConfig is the parsed command line.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
}

type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{"serve-open", runServeOpen},
	{"sim-day", runSimDay},
	{"fleet-day", runFleetDay},
}

func main() {
	var rc runConfig
	var trace int
	flag.StringVar(&rc.Workload, "workload", "", "workload: serve-open, sim-day or fleet-day")
	flag.Uint64Var(&rc.Seed, "seed", 1, "workload seed (faults, fleet, session schedule)")
	flag.Float64Var(&rc.Seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer ledger")
	flag.Parse()
	rc.Trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace %d: want 0 or 1", trace)
	}
	if rc.Seconds <= 0 {
		fatalf("--seconds %g must be positive", rc.Seconds)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == rc.Workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatalf("unknown --workload %q", rc.Workload)
	}

	start := time.Now()
	out, err := wl.run(rc)
	if err != nil {
		fatalf("%s: %v", rc.Workload, err)
	}
	out.set("peak_mem_mb", peakMemMB())
	if rc.Trace {
		// A layer the workload never enters reads 0.
		var skipped []string
		for _, name := range perLayerMetrics {
			if _, ok := out.Metrics[name]; !ok {
				out.set(name, 0)
				skipped = append(skipped, name)
			}
		}
		out.detail("layers_not_entered", skipped)
		out.Metrics = pick(out.Metrics, perLayerMetrics)
	} else {
		out.Metrics = pick(out.Metrics, endToEndMetrics)
		for _, name := range endToEndMetrics {
			_, ok := out.Metrics[name]
			out.check(ok, "metric %s was not measured", name)
		}
	}
	if out.Spans != nil {
		if err := writeSpans(out.Spans, rc); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}

	info := map[string]any{
		"host":     hostFingerprint(),
		"run":      rc,
		"wall_s":   time.Since(start).Seconds(),
		"detail":   out.Detail,
		"problems": out.Problems,
	}
	if b, err := json.Marshal(info); err == nil {
		fmt.Printf("perfbench: %s\n", b)
	}
	for _, p := range out.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Failed == 0, max(out.Attempted, 1), out.Failed, out.Metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
	if out.Failed > 0 {
		os.Exit(1)
	}
}

// pick keeps the named metrics.
func pick(ms map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		if m, ok := ms[n]; ok {
			out[n] = m
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// outDir is where traced runs leave their span ledgers: inside the build
// directory of the checkout the benchmark runs from.
const outDir = ".bench_build/spans"

func writeSpans(l *Ledger, rc runConfig) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.tsv", rc.Workload, rc.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.WriteTSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostFingerprint records what the figures were measured on.
func hostFingerprint() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"rev":        gitRev(),
	}
}
