package tcn

import (
	"fmt"
	"math"

	"repro/internal/gemm"
)

// This file is the int8 forward path, batched or not: the same im2col +
// GEMM lowering as the float batch kernels, but with int8 operands, int32
// accumulators and a per-output-channel float rescale between layers.
// QuantNetwork.Forward runs one window through it as a batch of one.
// Integer accumulation is exact and the rescale is element-wise, so every
// window's output is independent of the batch it rides in — the property
// the record builder, the serve coalescer and the paper tables rely on.

// qBatchTensor is the batched int8 activation tensor, sample-major like
// BatchTensor: element (n, c, t) lives at Data[(n*C+c)*T+t]. Its
// dequantization scale is the outScale of the op that wrote it.
type qBatchTensor struct {
	N, C, T int
	Data    []int8
}

// Sample returns the contiguous C×T int8 block of sample n.
func (x *qBatchTensor) Sample(n int) []int8 {
	sz := x.C * x.T
	return x.Data[n*sz : (n+1)*sz]
}

// ensureQBatchTensor mirrors ensureBatchTensor for int8 data
// (capacity-based reuse, contents not cleared).
func ensureQBatchTensor(slot **qBatchTensor, n, c, t int) *qBatchTensor {
	need := n * c * t
	q := *slot
	if q == nil {
		q = &qBatchTensor{Data: make([]int8, need)}
		*slot = q
	} else if cap(q.Data) < need {
		q.Data = make([]int8, need)
	} else {
		q.Data = q.Data[:need]
	}
	q.N, q.C, q.T = n, c, t
	return q
}

// quantizeBatchInto quantizes a float batch onto the int8 input grid
// (round to nearest, clamp to ±127).
func quantizeBatchInto(slot **qBatchTensor, x *BatchTensor, scale float32) *qBatchTensor {
	q := ensureQBatchTensor(slot, x.N, x.C, x.T)
	for i, v := range x.Data {
		q.Data[i] = clampI8(float32(math.Round(float64(v / scale))))
	}
	return q
}

// rescaleRow applies the per-output-channel rescale (round, optional
// fused ReLU, clamp) to one accumulator row, shared by the per-sample and
// cross-sample lowerings.
func (l *qConv) rescaleRow(yr []int8, ar []int32, o int) {
	mult := l.inScale * l.wScale[o] / l.outScale
	for t, a := range ar {
		v := float32(math.Round(float64(float32(a) * mult)))
		if l.relu && v < 0 {
			v = 0
		}
		yr[t] = clampI8(v)
	}
}

// forwardBatch implements qOp for qConv: im2col packing, the int8 GEMM
// micro-kernel over bias-seeded int32 accumulators, then the
// per-output-channel rescale — per sample for large layers, or as one
// wide cross-sample GEMM (the same lowering and heuristic as the float
// path; integer accumulation is exact, so the result is identical either
// way).
func (l *qConv) forwardBatch(x *qBatchTensor) *qBatchTensor {
	outT := (x.T-1)/l.stride + 1
	y := ensureQBatchTensor(&l.outB, x.N, l.outC, outT)
	J := l.inC * l.kernel
	padL := l.padLeft()
	if crossSampleWorthIt(x.N, l.outC, outT) {
		wide := x.N * outT
		col := ensureSlice(&l.colBuf, J*wide)
		im2colWide(col, x.Data, x.N, l.inC, x.T, l.kernel, l.dilation, l.stride, padL, outT)
		acc := ensureSlice(&l.accBuf, l.outC*wide)
		for o := 0; o < l.outC; o++ {
			b := l.bias[o]
			row := acc[o*wide : (o+1)*wide]
			for t := range row {
				row[t] = b
			}
		}
		gemm.S8(acc, l.weight, col, l.outC, J, wide)
		for n := 0; n < x.N; n++ {
			ys := y.Sample(n)
			for o := 0; o < l.outC; o++ {
				l.rescaleRow(ys[o*outT:(o+1)*outT], acc[o*wide+n*outT:o*wide+(n+1)*outT], o)
			}
		}
		return y
	}
	col := ensureSlice(&l.colBuf, J*outT)
	acc := ensureSlice(&l.accBuf, l.outC*outT)
	for n := 0; n < x.N; n++ {
		im2col(col, x.Sample(n), l.inC, x.T, l.kernel, l.dilation, l.stride, padL, outT)
		for o := 0; o < l.outC; o++ {
			b := l.bias[o]
			row := acc[o*outT : (o+1)*outT]
			for t := range row {
				row[t] = b
			}
		}
		gemm.S8(acc, l.weight, col, l.outC, J, outT)
		ys := y.Sample(n)
		for o := 0; o < l.outC; o++ {
			l.rescaleRow(ys[o*outT:(o+1)*outT], acc[o*outT:(o+1)*outT], o)
		}
	}
	return y
}

// forwardBatch implements qOp for qDense: the whole batch is one int8 GEMM
// against the weight rows (accumulators bias-seeded), followed by the
// rescale — into float for the final head, re-quantized otherwise.
func (l *qDense) forwardBatch(x *qBatchTensor) *qBatchTensor {
	N := x.N
	acc := ensureSlice(&l.accBuf, N*l.out)
	for n := 0; n < N; n++ {
		copy(acc[n*l.out:(n+1)*l.out], l.bias)
	}
	gemm.S8NT(acc, x.Data, l.weight, N, l.in, l.out)
	y := ensureQBatchTensor(&l.outBB, N, l.out, 1)
	var head []float32
	if l.last {
		head = ensureSlice(&l.lastOutB, N*l.out)
	}
	for i, a := range acc {
		o := i % l.out
		realV := float32(a) * l.inScale * l.wScale[o]
		if l.relu && realV < 0 {
			realV = 0
		}
		if l.last {
			head[i] = realV
			continue
		}
		y.Data[i] = clampI8(float32(math.Round(float64(realV / l.outScale))))
	}
	return y
}

// ForwardBatch runs batched int8 inference, writing each sample's scalar
// float output into out (length x.N). Each result is bitwise identical to
// Forward on that window alone.
func (q *QuantNetwork) ForwardBatch(x *BatchTensor, out []float32) {
	if len(out) != x.N {
		panic(fmt.Sprintf("tcn: quantized %s batch output has %d slots, want %d", q.Topology, len(out), x.N))
	}
	normed := q.norm.ForwardBatch(x)
	cur := quantizeBatchInto(&q.qinB, normed, q.inScale)
	var lastDense *qDense
	for _, op := range q.ops {
		cur = op.forwardBatch(cur)
		if d, ok := op.(*qDense); ok && d.last {
			lastDense = d
		}
	}
	if lastDense == nil || len(lastDense.lastOutB) != x.N {
		panic("tcn: quantized network lacks a scalar head")
	}
	copy(out, lastDense.lastOutB)
}
