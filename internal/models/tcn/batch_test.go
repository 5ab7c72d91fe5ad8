package tcn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dalia"
)

// batchSizes covers the shapes the estimator meets in practice: a single
// window, odd batches, a full internal chunk, and ragged tails just over
// one and two chunk boundaries.
var batchSizes = []int{1, 3, 5, batchChunk, batchChunk + 1, 2*batchChunk + 7}

func randomBatch(rng *rand.Rand, n, c, t int) *BatchTensor {
	x := NewBatchTensor(n, c, t)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

// TestConv1DForwardBatchMatchesSerial sweeps kernels, dilations and strides
// over several lengths and batch sizes: the im2col+GEMM path must match the
// serial Forward bitwise on every sample (same bias-seeded, ascending-tap
// accumulation order).
func TestConv1DForwardBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, kernel := range []int{1, 2, 3, 5, 8} {
		for _, dil := range []int{1, 2, 4} {
			for _, stride := range []int{1, 2} {
				for _, inT := range []int{1, 2, 5, 31, 64} {
					l := randomConv(rng, 3, 2, kernel, dil, stride)
					xb := randomBatch(rng, 4, 3, inT)
					yb := l.ForwardBatch(xb)
					for n := 0; n < xb.N; n++ {
						xs := xb.SampleTensor(n)
						want := l.Forward(&xs)
						got := yb.Sample(n)
						if len(got) != want.Numel() {
							t.Fatalf("k%d d%d s%d T%d: batch sample %d has %d elems, want %d",
								kernel, dil, stride, inT, n, len(got), want.Numel())
						}
						for i := range want.Data {
							if got[i] != want.Data[i] {
								t.Fatalf("k%d d%d s%d T%d sample %d: elem %d = %v, want %v (must be bitwise equal)",
									kernel, dil, stride, inT, n, i, got[i], want.Data[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestConv1DBackwardBatchCloseToSerial checks the GEMM backward against
// sample-at-a-time Backward. The batched weight- and input-gradient
// reductions associate sums differently (per-tap partial sums vs col2im
// scatter order), so equality is to a tight tolerance rather than bitwise.
func TestConv1DBackwardBatchCloseToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kernel := range []int{1, 3, 5} {
		for _, dil := range []int{1, 4} {
			for _, stride := range []int{1, 2} {
				l := randomConv(rng, 2, 3, kernel, dil, stride)
				const N, inT = 3, 33
				xb := randomBatch(rng, N, 2, inT)
				yb := l.ForwardBatch(xb)
				gb := randomBatch(rng, N, yb.C, yb.T)

				// Serial reference over the same samples.
				ref := l.CloneForWorker().(*Conv1D)
				wantGX := make([][]float32, N)
				for n := 0; n < N; n++ {
					xs := xb.SampleTensor(n)
					ref.Forward(&xs)
					gs := gb.SampleTensor(n)
					gx := ref.Backward(&gs)
					wantGX[n] = append([]float32(nil), gx.Data...)
				}

				l.Weight.ZeroGrad()
				l.Bias.ZeroGrad()
				gxb := l.BackwardBatch(gb)
				const tol = 1e-4
				for i := range ref.Weight.G {
					if d := float64(l.Weight.G[i] - ref.Weight.G[i]); math.Abs(d) > tol {
						t.Fatalf("k%d d%d s%d: wG[%d] = %v, want %v", kernel, dil, stride, i, l.Weight.G[i], ref.Weight.G[i])
					}
				}
				for i := range ref.Bias.G {
					if d := float64(l.Bias.G[i] - ref.Bias.G[i]); math.Abs(d) > tol {
						t.Fatalf("k%d d%d s%d: bG[%d] = %v, want %v", kernel, dil, stride, i, l.Bias.G[i], ref.Bias.G[i])
					}
				}
				for n := 0; n < N; n++ {
					got := gxb.Sample(n)
					for i := range wantGX[n] {
						if d := float64(got[i] - wantGX[n][i]); math.Abs(d) > tol {
							t.Fatalf("k%d d%d s%d sample %d: gx[%d] = %v, want %v",
								kernel, dil, stride, n, i, got[i], wantGX[n][i])
						}
					}
				}
			}
		}
	}
}

// TestConvBatchWideMatchesPerSampleBitwise pins the cross-sample lowering
// to the per-sample accumulation chain, forward AND backward: for shapes
// under the wide-path threshold, an N-sample batch must reproduce N
// single-sample batches bitwise (N=1 never takes the wide path, so the
// reference below is the per-sample im2col+GEMM lowering). This is what
// lets retraining through the wide kernels leave cached weights — and
// with them every downstream artifact — byte-identical.
func TestConvBatchWideMatchesPerSampleBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, cfg := range []struct{ kernel, dil, stride int }{{3, 2, 1}, {3, 1, 2}, {5, 4, 1}} {
		l := randomConv(rng, 3, 6, cfg.kernel, cfg.dil, cfg.stride)
		const N, inT = 5, 64
		_, outT := l.OutShape(3, inT)
		if !crossSampleWorthIt(N, l.OutC, outT) {
			t.Fatalf("k%d d%d s%d: test shape no longer under the wide threshold", cfg.kernel, cfg.dil, cfg.stride)
		}
		xb := randomBatch(rng, N, 3, inT)
		yb := l.ForwardBatch(xb)
		gb := randomBatch(rng, N, yb.C, yb.T)
		l.Weight.ZeroGrad()
		l.Bias.ZeroGrad()
		gxb := l.BackwardBatch(gb)

		ref := l.CloneForWorker().(*Conv1D)
		ref.Weight.ZeroGrad()
		ref.Bias.ZeroGrad()
		for n := 0; n < N; n++ {
			x1 := &BatchTensor{N: 1, C: xb.C, T: xb.T, Data: xb.Sample(n)}
			y1 := ref.ForwardBatch(x1)
			for i, v := range y1.Data {
				if yb.Sample(n)[i] != v {
					t.Fatalf("k%d d%d s%d sample %d: fwd elem %d = %v, want %v (must be bitwise equal)",
						cfg.kernel, cfg.dil, cfg.stride, n, i, yb.Sample(n)[i], v)
				}
			}
			g1 := &BatchTensor{N: 1, C: gb.C, T: gb.T, Data: gb.Sample(n)}
			gx1 := ref.BackwardBatch(g1)
			for i, v := range gx1.Data {
				if gxb.Sample(n)[i] != v {
					t.Fatalf("k%d d%d s%d sample %d: gx elem %d = %v, want %v (must be bitwise equal)",
						cfg.kernel, cfg.dil, cfg.stride, n, i, gxb.Sample(n)[i], v)
				}
			}
		}
		for i := range ref.Weight.G {
			if l.Weight.G[i] != ref.Weight.G[i] {
				t.Fatalf("k%d d%d s%d: wG[%d] = %v, want %v (must be bitwise equal)",
					cfg.kernel, cfg.dil, cfg.stride, i, l.Weight.G[i], ref.Weight.G[i])
			}
		}
		for i := range ref.Bias.G {
			if l.Bias.G[i] != ref.Bias.G[i] {
				t.Fatalf("k%d d%d s%d: bG[%d] = %v, want %v (must be bitwise equal)",
					cfg.kernel, cfg.dil, cfg.stride, i, l.Bias.G[i], ref.Bias.G[i])
			}
		}
	}
}

// TestDenseBatchMatchesSerialBitwise pins both directions of the dense
// layer: the batched GEMM keeps the serial element order exactly, forward
// and backward.
func TestDenseBatchMatchesSerialBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	l := NewDense("t.fc", 24, 7)
	for i := range l.Weight.W {
		l.Weight.W[i] = float32(rng.NormFloat64())
	}
	for i := range l.Bias.W {
		l.Bias.W[i] = float32(rng.NormFloat64())
	}
	const N = 5
	xb := randomBatch(rng, N, 24, 1)
	yb := l.ForwardBatch(xb)
	gb := randomBatch(rng, N, 7, 1)

	ref := l.CloneForWorker().(*Dense)
	gxWant := make([][]float32, N)
	for n := 0; n < N; n++ {
		xs := xb.SampleTensor(n)
		y := ref.Forward(&xs)
		for o := 0; o < 7; o++ {
			if yb.Sample(n)[o] != y.Data[o] {
				t.Fatalf("forward sample %d out %d: %v vs %v", n, o, yb.Sample(n)[o], y.Data[o])
			}
		}
		gs := gb.SampleTensor(n)
		gx := ref.Backward(&gs)
		gxWant[n] = append([]float32(nil), gx.Data...)
	}
	l.Weight.ZeroGrad()
	l.Bias.ZeroGrad()
	gxb := l.BackwardBatch(gb)
	for i := range ref.Weight.G {
		if l.Weight.G[i] != ref.Weight.G[i] {
			t.Fatalf("wG[%d] = %v, want %v (must be bitwise equal)", i, l.Weight.G[i], ref.Weight.G[i])
		}
	}
	for i := range ref.Bias.G {
		if l.Bias.G[i] != ref.Bias.G[i] {
			t.Fatalf("bG[%d] = %v, want %v", i, l.Bias.G[i], ref.Bias.G[i])
		}
	}
	for n := 0; n < N; n++ {
		got := gxb.Sample(n)
		for i := range gxWant[n] {
			if got[i] != gxWant[n][i] {
				t.Fatalf("gx sample %d elem %d: %v vs %v", n, i, got[i], gxWant[n][i])
			}
		}
	}
}

// TestNetworkForwardBatchMatchesSerial pins the whole float stack, for both
// zoo topologies and every batch-size shape.
func TestNetworkForwardBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, build := range []func() *Network{NewTimePPGSmall, NewTimePPGBig} {
		net := build()
		net.InitWeights(3)
		ref := net.CloneForWorker()
		sizes := batchSizes
		if net.Topology == BigName {
			sizes = []int{1, 3, 5} // Big is ~60× the work; small batches prove the point
		}
		for _, N := range sizes {
			xb := randomBatch(rng, N, InputChannels, InputSamples)
			out := make([]float32, N)
			net.ForwardBatch(xb, out)
			for n := 0; n < N; n++ {
				xs := xb.SampleTensor(n)
				want := ref.Forward(&xs)
				if out[n] != want {
					t.Fatalf("%s N=%d sample %d: batch %v, serial %v (must be bitwise equal)",
						net.Topology, N, n, out[n], want)
				}
			}
		}
	}
}

// TestQuantForwardBatchMatchesSerial pins the int8 deployment path against
// the scalar direct-convolution oracle refQuantForward: both the one-window
// Forward and the im2col+S8-GEMM ForwardBatch must reproduce it bitwise
// (int32 accumulation is exact, rescale expressions identical).
func TestQuantForwardBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, build := range []func() *Network{NewTimePPGSmall, NewTimePPGBig} {
		net := build()
		net.InitWeights(5)
		var calib []*Tensor
		for i := 0; i < 8; i++ {
			calib = append(calib, randomTensor(rng, InputChannels, InputSamples))
		}
		q, err := Quantize(net, calib)
		if err != nil {
			t.Fatal(err)
		}
		sizes := batchSizes
		if net.Topology == BigName {
			sizes = []int{1, 3, 5}
		}
		for _, N := range sizes {
			xb := randomBatch(rng, N, InputChannels, InputSamples)
			out := make([]float32, N)
			q.ForwardBatch(xb, out)
			for n := 0; n < N; n++ {
				xs := xb.SampleTensor(n)
				want := refQuantForward(q, &xs)
				if out[n] != want {
					t.Fatalf("%s int8 N=%d sample %d: batch %v, reference %v (must be bitwise equal)",
						net.Topology, N, n, out[n], want)
				}
				if got := q.Forward(&xs); got != want {
					t.Fatalf("%s int8 N=%d sample %d: Forward %v, reference %v (must be bitwise equal)",
						net.Topology, N, n, got, want)
				}
			}
		}
	}
}

func synthWindows(rng *rand.Rand, n int) []dalia.Window {
	ws := make([]dalia.Window, n)
	for i := range ws {
		w := dalia.Window{
			PPG:    make([]float64, InputSamples),
			AccelX: make([]float64, InputSamples),
			AccelY: make([]float64, InputSamples),
			AccelZ: make([]float64, InputSamples),
			TrueHR: 60 + 100*rng.Float64(),
		}
		for t := 0; t < InputSamples; t++ {
			w.PPG[t] = rng.NormFloat64()
			w.AccelX[t] = rng.NormFloat64()
			w.AccelY[t] = rng.NormFloat64()
			w.AccelZ[t] = rng.NormFloat64()
		}
		ws[i] = w
	}
	return ws
}

// TestEstimateHRBatchMatchesSerial pins the estimator API in both float32
// and int8 form over a ragged window count (two full chunks plus a tail),
// including that chunk boundaries leave no trace.
func TestEstimateHRBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ws := synthWindows(rng, 2*batchChunk+3)
	net := NewTimePPGSmall()
	net.InitWeights(7)
	est := NewEstimator(net)

	check := func(mode string) {
		t.Helper()
		out := make([]float64, len(ws))
		est.EstimateHRBatch(ws, out)
		ref := est.Clone()
		for i := range ws {
			want := ref.EstimateHR(&ws[i])
			if out[i] != want {
				t.Fatalf("%s window %d: batch %v, serial %v (must be bitwise equal)", mode, i, out[i], want)
			}
		}
	}
	check("float32")

	var calib []*Tensor
	for i := 0; i < 8; i++ {
		calib = append(calib, WindowToTensor(&ws[i]))
	}
	if err := est.Quantize(calib); err != nil {
		t.Fatal(err)
	}
	check("int8")
}

// TestBatchPathZeroAllocSteadyState guards the arena reuse: once warm —
// including the full-chunk/ragged-tail alternation — the batched float32
// and int8 paths must not allocate.
func TestBatchPathZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	net := NewTimePPGSmall()
	net.InitWeights(9)
	xb := randomBatch(rng, 4, InputChannels, InputSamples)
	out := make([]float32, 4)
	net.ForwardBatch(xb, out)
	if n := testing.AllocsPerRun(20, func() { net.ForwardBatch(xb, out) }); n != 0 {
		t.Errorf("Network.ForwardBatch allocates %v per run in steady state", n)
	}
	grads := make([]float32, 4)
	net.BackwardBatch(grads)
	if n := testing.AllocsPerRun(20, func() { net.BackwardBatch(grads) }); n != 0 {
		t.Errorf("Network.BackwardBatch allocates %v per run in steady state", n)
	}

	ws := synthWindows(rng, batchChunk+5) // ragged: exercises tail-chunk reuse
	est := NewEstimator(net.CloneForWorker())
	preds := make([]float64, len(ws))
	est.EstimateHRBatch(ws, preds)
	if n := testing.AllocsPerRun(10, func() { est.EstimateHRBatch(ws, preds) }); n != 0 {
		t.Errorf("EstimateHRBatch (float32) allocates %v per run in steady state", n)
	}

	var calib []*Tensor
	for i := 0; i < 4; i++ {
		calib = append(calib, WindowToTensor(&ws[i]))
	}
	if err := est.Quantize(calib); err != nil {
		t.Fatal(err)
	}
	est.EstimateHRBatch(ws, preds)
	if n := testing.AllocsPerRun(10, func() { est.EstimateHRBatch(ws, preds) }); n != 0 {
		t.Errorf("EstimateHRBatch (int8) allocates %v per run in steady state", n)
	}
}

// TestBatchSerialInterleaveIsSafe guards that the scalar and batched paths
// keep separate arenas on one instance: interleaving them must not corrupt
// either result.
func TestBatchSerialInterleaveIsSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	net := NewTimePPGSmall()
	net.InitWeights(11)
	xb := randomBatch(rng, 3, InputChannels, InputSamples)
	out := make([]float32, 3)
	net.ForwardBatch(xb, out)
	x0 := xb.SampleTensor(0)
	serial := net.Forward(&x0)
	again := make([]float32, 3)
	net.ForwardBatch(xb, again)
	if serial != out[0] {
		t.Fatalf("serial after batch %v, batch %v", serial, out[0])
	}
	for i := range out {
		if out[i] != again[i] {
			t.Fatalf("batch after serial diverged at %d: %v vs %v", i, again[i], out[i])
		}
	}
}

func BenchmarkNetworkForwardBatchBig(b *testing.B) {
	net := NewTimePPGBig()
	net.InitWeights(1)
	rng := rand.New(rand.NewSource(51))
	xb := randomBatch(rng, batchChunk, InputChannels, InputSamples)
	out := make([]float32, batchChunk)
	net.ForwardBatch(xb, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(xb, out)
	}
	b.ReportMetric(float64(b.N*batchChunk), "windows")
}

// BenchmarkNetworkForwardBatchSmall measures the cross-sample path: every
// TimePPG-Small conv layer rides the wide im2col lowering, so the whole
// batch is three GEMMs per block instead of 3·N underfed per-sample ones.
func BenchmarkNetworkForwardBatchSmall(b *testing.B) {
	net := NewTimePPGSmall()
	net.InitWeights(1)
	rng := rand.New(rand.NewSource(55))
	xb := randomBatch(rng, batchChunk, InputChannels, InputSamples)
	out := make([]float32, batchChunk)
	net.ForwardBatch(xb, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(xb, out)
	}
	b.ReportMetric(float64(b.N*batchChunk), "windows")
}

func quantNet(b *testing.B, build func() *Network, seed int64) *QuantNetwork {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := build()
	net.InitWeights(2)
	var calib []*Tensor
	for i := 0; i < 8; i++ {
		calib = append(calib, randomTensor(rng, InputChannels, InputSamples))
	}
	q, err := Quantize(net, calib)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func quantBig(b *testing.B) *QuantNetwork {
	b.Helper()
	return quantNet(b, NewTimePPGBig, 52)
}

func BenchmarkQuantBigForwardSerial(b *testing.B) {
	q := quantBig(b)
	x := randomTensor(rand.New(rand.NewSource(53)), InputChannels, InputSamples)
	q.Forward(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Forward(x)
	}
}

func BenchmarkQuantBigForwardBatch(b *testing.B) {
	q := quantBig(b)
	rng := rand.New(rand.NewSource(54))
	xb := randomBatch(rng, batchChunk, InputChannels, InputSamples)
	out := make([]float32, batchChunk)
	q.ForwardBatch(xb, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ForwardBatch(xb, out)
	}
	b.ReportMetric(float64(b.N*batchChunk), "windows")
}

// BenchmarkQuantSmallForwardSerial / ...Batch pair the deployed int8
// TimePPG-Small path the same way the Big benchmarks do, so the
// cross-sample gain on the wearable-side network is measurable directly.
func BenchmarkQuantSmallForwardSerial(b *testing.B) {
	q := quantNet(b, NewTimePPGSmall, 56)
	x := randomTensor(rand.New(rand.NewSource(57)), InputChannels, InputSamples)
	q.Forward(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Forward(x)
	}
}

func BenchmarkQuantSmallForwardBatch(b *testing.B) {
	q := quantNet(b, NewTimePPGSmall, 56)
	rng := rand.New(rand.NewSource(58))
	xb := randomBatch(rng, batchChunk, InputChannels, InputSamples)
	out := make([]float32, batchChunk)
	q.ForwardBatch(xb, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ForwardBatch(xb, out)
	}
	b.ReportMetric(float64(b.N*batchChunk), "windows")
}
