package tcn

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

func trainedTinyNet(t *testing.T) (*Network, []Sample) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	train := freqCodedSamples(rng, 128)
	net := NewTimePPGSmall()
	net.InitWeights(13)
	cfg := TrainConfig{Epochs: 8, BatchSize: 8, LR: 4e-3, Seed: 1, Workers: 4, LRDecay: 0.9}
	if _, err := Fit(net, train, cfg); err != nil {
		t.Fatal(err)
	}
	return net, train
}

func TestFoldAffineEquivalence(t *testing.T) {
	net, train := trainedTinyNet(t)
	folded := FoldAffine(net)
	for i := 0; i < 16; i++ {
		x := train[i].X
		a := net.Forward(x)
		b := folded.Forward(x)
		if math.Abs(float64(a-b)) > 1e-3 {
			t.Fatalf("folded output %v differs from original %v", b, a)
		}
	}
	// Folding must remove every ChannelAffine.
	for _, l := range folded.Layers {
		if _, ok := l.(*ChannelAffine); ok {
			t.Fatal("affine layer survived folding")
		}
	}
}

func TestQuantizedCloseToFloat(t *testing.T) {
	net, train := trainedTinyNet(t)
	var calib []*Tensor
	for i := 0; i < 32; i++ {
		calib = append(calib, train[i].X)
	}
	q, err := Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff float64
	for i := 32; i < 64; i++ {
		f := DenormalizeHR(net.Forward(train[i].X))
		qv := DenormalizeHR(q.Forward(train[i].X))
		d := math.Abs(f - qv)
		if d > maxDiff {
			maxDiff = d
		}
	}
	t.Logf("max float-vs-int8 divergence: %.3f BPM", maxDiff)
	// int8 with per-channel scales should stay within a few BPM.
	if maxDiff > 8 {
		t.Errorf("quantized divergence %.2f BPM too large", maxDiff)
	}
	if q.MACs() <= 0 {
		t.Error("quantized MAC count not positive")
	}
}

func TestQuantizeNeedsCalibration(t *testing.T) {
	net := NewTimePPGSmall()
	net.InitWeights(1)
	if _, err := Quantize(net, nil); err == nil {
		t.Error("quantization without calibration accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net, train := trainedTinyNet(t)
	path := filepath.Join(t.TempDir(), "small.tcnw")
	if err := Save(net, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Topology != net.Topology {
		t.Fatalf("topology %q, want %q", loaded.Topology, net.Topology)
	}
	for i := 0; i < 8; i++ {
		a := net.Forward(train[i].X)
		b := loaded.Forward(train[i].X)
		if a != b {
			t.Fatalf("loaded network output %v differs from original %v", b, a)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus.tcnw")
	if err := Save(NewTimePPGSmall(), path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.tcnw")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestEstimatorInterface(t *testing.T) {
	net, train := trainedTinyNet(t)
	est := NewEstimator(net)
	if est.Name() != SmallName {
		t.Errorf("Name = %q", est.Name())
	}
	if est.Ops() != net.MACs() || est.Params() != net.NumParams() {
		t.Error("Ops/Params mismatch with network")
	}
	var calib []*Tensor
	for i := 0; i < 16; i++ {
		calib = append(calib, train[i].X)
	}
	if err := est.Quantize(calib); err != nil {
		t.Fatal(err)
	}
	if !est.Quantized() {
		t.Error("Quantized() false after Quantize")
	}
	if s := est.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestDescribe(t *testing.T) {
	d := NewTimePPGSmall().Describe()
	if len(d) < 100 {
		t.Errorf("Describe too short: %q", d)
	}
}

// refQuantForward is the scalar int8 reference: the quantized input, then
// direct dilated convolution with a bounds check on every tap and
// dot-product dense layers, over the quantized weights and scales of q.
// It shares no code with the im2col + GEMM lowering, so it is the
// independent oracle that lowering is checked against.
func refQuantForward(q *QuantNetwork, x *Tensor) float32 {
	normed := NewInputNorm("ref").Forward(x)
	cur := make([]int8, len(normed.Data))
	for i, v := range normed.Data {
		cur[i] = clampI8(float32(math.Round(float64(v / q.inScale))))
	}
	T := x.T
	for _, op := range q.ops {
		switch l := op.(type) {
		case *qConv:
			outT := (T-1)/l.stride + 1
			y := make([]int8, l.outC*outT)
			padL := l.padLeft()
			for o := 0; o < l.outC; o++ {
				mult := l.inScale * l.wScale[o] / l.outScale
				for t := 0; t < outT; t++ {
					acc := l.bias[o]
					for ci := 0; ci < l.inC; ci++ {
						wBase := (o*l.inC + ci) * l.kernel
						xBase := ci * T
						for k := 0; k < l.kernel; k++ {
							src := t*l.stride + k*l.dilation - padL
							if src >= 0 && src < T {
								acc += int32(l.weight[wBase+k]) * int32(cur[xBase+src])
							}
						}
					}
					v := float32(math.Round(float64(float32(acc) * mult)))
					if l.relu && v < 0 {
						v = 0
					}
					y[o*outT+t] = clampI8(v)
				}
			}
			cur, T = y, outT
		case *qDense:
			y := make([]int8, l.out)
			for o := 0; o < l.out; o++ {
				acc := l.bias[o]
				row := l.weight[o*l.in : (o+1)*l.in]
				for i, xv := range cur {
					acc += int32(row[i]) * int32(xv)
				}
				realV := float32(acc) * l.inScale * l.wScale[o]
				if l.relu && realV < 0 {
					realV = 0
				}
				if l.last {
					if l.out != 1 {
						panic("tcn: quantized network lacks a scalar head")
					}
					return realV
				}
				y[o] = clampI8(float32(math.Round(float64(realV / l.outScale))))
			}
			cur, T = y, 1
		default:
			panic(fmt.Sprintf("tcn: reference has no form for %T", op))
		}
	}
	panic("tcn: quantized network lacks a scalar head")
}

// TestQuantEstimateInterleaveZeroAlloc runs the one-window and the batched
// int8 estimator on one warm instance in alternation, over a ragged window
// count (a full chunk plus a tail): both share the lowering's arenas, so
// each must stay allocation-free across the resizes and neither may leave
// state that changes the other's results.
func TestQuantEstimateInterleaveZeroAlloc(t *testing.T) {
	ws := synthWindows(rand.New(rand.NewSource(61)), 37)
	net := NewTimePPGSmall()
	net.InitWeights(17)
	est := NewEstimator(net)
	var calib []*Tensor
	for i := 0; i < 8; i++ {
		calib = append(calib, WindowToTensor(&ws[i]))
	}
	if err := est.Quantize(calib); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(ws))
	fresh := est.Clone()
	fresh.EstimateHRBatch(ws, want)

	got := make([]float64, len(ws))
	serial := func() {
		for i := range ws {
			got[i] = est.EstimateHR(&ws[i])
		}
	}
	batch := func() { est.EstimateHRBatch(ws, got) }
	check := func(path string, round int) {
		t.Helper()
		for i := range ws {
			if got[i] != want[i] {
				t.Fatalf("%s round %d window %d: %v, fresh clone %v (must be bitwise equal)",
					path, round, i, got[i], want[i])
			}
		}
	}
	for round := 0; round < 3; round++ {
		if n := testing.AllocsPerRun(3, serial); n != 0 {
			t.Errorf("EstimateHR (int8) allocates %v per run after the batched path", n)
		}
		check("EstimateHR", round)
		if n := testing.AllocsPerRun(3, batch); n != 0 {
			t.Errorf("EstimateHRBatch (int8) allocates %v per run after the one-window path", n)
		}
		check("EstimateHRBatch", round)
	}
}

// TestQuantCloneForWorkerConcurrent runs two CloneForWorker copies of one
// quantized network at once, one window at a time and in batches. Under
// the race detector this proves the copies share only immutable weights;
// the results must match the scalar reference.
func TestQuantCloneForWorkerConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	net := NewTimePPGSmall()
	net.InitWeights(19)
	var calib []*Tensor
	for i := 0; i < 8; i++ {
		calib = append(calib, randomTensor(rng, InputChannels, InputSamples))
	}
	q, err := Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	xb := randomBatch(rng, 7, InputChannels, InputSamples)
	want := make([]float32, xb.N)
	for n := range want {
		xs := xb.SampleTensor(n)
		want[n] = refQuantForward(q, &xs)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		c := q.CloneForWorker()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]float32, xb.N)
			for round := 0; round < 4; round++ {
				c.ForwardBatch(xb, out)
				for n := range out {
					xs := xb.SampleTensor(n)
					if got := c.Forward(&xs); got != want[n] || out[n] != want[n] {
						errs[w] = fmt.Errorf("worker %d round %d sample %d: Forward %v, batch %v, reference %v",
							w, round, n, got, out[n], want[n])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
