package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host-speed calibration. The host this benchmark is meant for lends it
// a few vCPUs of a shared machine, and their speed drifts by up to 1.7×
// over seconds to minutes as neighbours load the physical cores; the
// drift shows in CPU time as much as in wall time, so neither excludes
// it, and in some minutes the hypervisor steals a fifth of the busy CPU
// time on top. Every timed figure is therefore reported at a reference host
// speed: the timed work is cut into slices (a suite build, an hourly sim
// segment, a fleet.Run batch, a serve rung), each followed by a fixed
// calibration probe on every core the work used, and a slice's wall time
// is divided by the host's slowdown: the probe's recent time over
// calibRefSeconds, and the share of CPU time stolen during the slice
// (an open loop multiplies its rate instead). The probe
// is benchmark code only, so a change to the repository moves a scaled
// figure as it moves the raw one; the raw figures and every probe time
// stay in the detail line.

// calibRefSeconds is about the probe's median time on a core of the
// reference host (2 vCPUs of an Intel Xeon under KVM).
const calibRefSeconds = 0.5e-3

// calibLen sizes the probe's arrays: small enough to stay in L1/L2, like
// the models' weights and the simulator's state.
const calibLen = 1024

// calibProbe is one core's calibration state. Its work mixes what the
// benchmarked code does: int8 multiply-accumulate (the int8 TCN
// kernels), a float64 recurrence (the DSP filters and the belief
// filter) and a branchy sort (dispatch and the tick loop).
type calibProbe struct {
	a, b   []int8
	x, y   []float64
	sorted []float64
	sink   float64
}

func newCalibProbe() *calibProbe {
	p := &calibProbe{
		a: make([]int8, calibLen), b: make([]int8, calibLen),
		x: make([]float64, calibLen), y: make([]float64, calibLen),
		sorted: make([]float64, calibLen),
	}
	s := uint32(0x9e3779b9)
	for i := range p.a {
		s = s*1664525 + 1013904223
		p.a[i] = int8(s >> 24)
		p.b[i] = int8(s >> 16)
		p.x[i] = float64(int32(s)) / (1 << 31)
	}
	return p
}

// once is one unit of probe work, calibRefSeconds on the reference
// host.
func (p *calibProbe) once() {
	var acc int32
	for r := 0; r < 96; r++ {
		a, b := p.a, p.b[r%7:]
		for i := range b {
			acc += int32(a[i]) * int32(b[i])
		}
	}
	y1, y2 := 0.0, 0.0
	for r := 0; r < 24; r++ {
		for i, x := range p.x {
			y := 0.2*x + 1.6*y1 - 0.7*y2
			y2, y1 = y1, y
			p.y[i] = y
		}
	}
	for r := 0; r < 4; r++ {
		copy(p.sorted, p.x)
		p.sorted[r] = p.y[r]
		sort.Float64s(p.sorted)
	}
	p.sink += float64(acc) + y1 + p.sorted[calibLen/2]
	if math.IsNaN(p.sink) {
		panic("perfbench: calibration probe diverged")
	}
}

// calibUnits is how many probe units one measurement runs; the fastest
// of them is kept, so a preemption inside the probe does not count.
const calibUnits = 3

// measure runs the probe and returns the time of its fastest unit in
// seconds.
func (p *calibProbe) measure() float64 {
	best := math.Inf(1)
	for i := 0; i < calibUnits; i++ {
		t0 := time.Now()
		p.once()
		best = min(best, time.Since(t0).Seconds())
	}
	return best
}

// calibWindow is how many of the latest probe measurements the host's
// speed is the median of.
const calibWindow = 5

// hostSpeed scales timed slices of work to the reference host speed.
type hostSpeed struct {
	probes []*calibProbe
	// Seen holds every probe measurement, for the detail line.
	Seen []float64
	// Stolen holds each slice's stolen share of busy CPU time.
	Stolen            []float64
	lastBusy, lastStl uint64
}

// newHostSpeed probes on cores goroutines at once, one per core the
// timed work keeps busy, and takes the first calibWindow measurements.
func newHostSpeed(cores int) *hostSpeed {
	h := &hostSpeed{}
	for range cores {
		h.probes = append(h.probes, newCalibProbe())
	}
	for range calibWindow {
		h.measure()
	}
	h.lastBusy, h.lastStl = cpuTicks()
	return h
}

// measure is the mean probe time over the cores.
func (h *hostSpeed) measure() float64 {
	ts := make([]float64, len(h.probes))
	if len(h.probes) == 1 {
		ts[0] = h.probes[0].measure()
	} else {
		var wg sync.WaitGroup
		for i, p := range h.probes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ts[i] = p.measure()
			}()
		}
		wg.Wait()
	}
	t := mean(ts)
	h.Seen = append(h.Seen, t)
	return t
}

// current is the host's slowness against the reference speed while it
// runs the benchmark: the median of the latest calibWindow probe times
// over calibRefSeconds. A probe slowed by a passing interruption does
// not move it.
func (h *hostSpeed) current() float64 {
	return median(h.Seen[len(h.Seen)-calibWindow:]) / calibRefSeconds
}

// slowdown probes once more after a slice of work has just ended and
// returns the host's slowness over it: current, divided by the share of
// the busy CPU time the hypervisor did not steal since the previous
// slice ended. The probe keeps its fastest unit, so it does not see
// steal; the tick counts do.
func (h *hostSpeed) slowdown() float64 {
	h.measure()
	busy, stl := cpuTicks()
	stolen := 0.0
	if busy > h.lastBusy {
		stolen = min(float64(stl-h.lastStl)/float64(busy-h.lastBusy), 0.9)
	}
	h.lastBusy, h.lastStl = busy, stl
	h.Stolen = append(h.Stolen, stolen)
	return h.current() / (1 - stolen)
}

// scale takes the wall time of a slice of work that has just ended and
// returns its length at the reference speed.
func (h *hostSpeed) scale(wall float64) float64 { return wall / h.slowdown() }

// cpuTicks reads the machine's busy and stolen CPU time, in clock ticks
// summed over all CPUs, from the first line of /proc/stat. Busy time is
// everything but idle and I/O wait, steal included. Where /proc/stat
// is unavailable both read 0, and no time counts as stolen.
func cpuTicks() (busy, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal ...
	for i := 1; i <= 8; i++ {
		if i == 4 || i == 5 {
			continue
		}
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		busy += v
		if i == 8 {
			steal = v
		}
	}
	return busy, steal
}
