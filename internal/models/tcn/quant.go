package tcn

import (
	"fmt"
	"math"
)

// This file implements post-training int8 quantization, standing in for
// the paper's quantization-aware training + X-CUBE-AI/TFLite deployment:
// per-output-channel symmetric weights, per-tensor symmetric activations,
// int32 accumulation and float rescaling between layers (the same numeric
// scheme CMSIS-NN-class kernels use, with a float multiplier in place of
// the fixed-point one for clarity).

// FoldAffine returns a copy of the network with every ChannelAffine that
// follows a Conv1D folded into the convolution's weights and bias — the
// standard batch-norm folding step that precedes deployment. The two
// networks compute identical functions.
func FoldAffine(n *Network) *Network {
	out := &Network{Topology: n.Topology, InC: n.InC, InT: n.InT}
	for i := 0; i < len(n.Layers); i++ {
		conv, isConv := n.Layers[i].(*Conv1D)
		if isConv && i+1 < len(n.Layers) {
			if aff, isAff := n.Layers[i+1].(*ChannelAffine); isAff {
				folded := NewConv1D(conv.Name(), conv.InC, conv.OutC, conv.Kernel, conv.Dilation, conv.Stride)
				for o := 0; o < conv.OutC; o++ {
					g := aff.Gamma.W[o]
					base := o * conv.InC * conv.Kernel
					for j := 0; j < conv.InC*conv.Kernel; j++ {
						folded.Weight.W[base+j] = conv.Weight.W[base+j] * g
					}
					folded.Bias.W[o] = conv.Bias.W[o]*g + aff.Beta.W[o]
				}
				out.Layers = append(out.Layers, folded)
				i++ // skip the affine
				continue
			}
		}
		out.Layers = append(out.Layers, cloneLayerDeep(n.Layers[i]))
	}
	return out
}

// cloneLayerDeep copies a layer including its weights (unlike
// CloneForWorker, which shares them).
func cloneLayerDeep(l Layer) Layer {
	switch v := l.(type) {
	case *Conv1D:
		c := NewConv1D(v.Name(), v.InC, v.OutC, v.Kernel, v.Dilation, v.Stride)
		copy(c.Weight.W, v.Weight.W)
		copy(c.Bias.W, v.Bias.W)
		return c
	case *Dense:
		d := NewDense(v.Name(), v.In, v.Out)
		copy(d.Weight.W, v.Weight.W)
		copy(d.Bias.W, v.Bias.W)
		return d
	case *ChannelAffine:
		a := NewChannelAffine(v.Name(), len(v.Gamma.W))
		copy(a.Gamma.W, v.Gamma.W)
		copy(a.Beta.W, v.Beta.W)
		return a
	default:
		return l.CloneForWorker()
	}
}

// qOp is one stage of the quantized pipeline: the im2col + int8 GEMM
// lowering in quantbatch.go, the only int8 forward implementation.
type qOp interface {
	forwardBatch(x *qBatchTensor) *qBatchTensor
	macs() int64
}

func clampI8(v float32) int8 {
	if v > 127 {
		return 127
	}
	if v < -127 {
		return -127
	}
	return int8(v)
}

// qConv is an int8 convolution (or, with T==1 semantics preserved, the same
// geometry as its float counterpart) with fused optional ReLU.
type qConv struct {
	inC, outC, kernel, dilation, stride int
	weight                              []int8    // [outC][inC][kernel]
	wScale                              []float32 // per output channel
	bias                                []int32   // quantized at inScale*wScale[o]
	inScale, outScale                   float32
	relu                                bool
	inT                                 int

	// Activation arenas (see quantbatch.go).
	outB   *qBatchTensor
	colBuf []int8
	accBuf []int32
}

func (l *qConv) padLeft() int {
	total := (l.kernel - 1) * l.dilation
	return total - total/2
}

func (l *qConv) macs() int64 {
	outT := (l.inT-1)/l.stride + 1
	return int64(l.outC) * int64(l.inC) * int64(l.kernel) * int64(outT)
}

// qDense is the int8 fully connected layer; the final one dequantizes to
// float via outScale on a single element.
type qDense struct {
	in, out  int
	weight   []int8
	wScale   []float32
	bias     []int32
	inScale  float32
	outScale float32
	relu     bool
	last     bool

	// Activation arenas (see quantbatch.go).
	outBB    *qBatchTensor
	accBuf   []int32
	lastOutB []float32
}

func (l *qDense) macs() int64 { return int64(l.in) * int64(l.out) }

// QuantNetwork is the int8 deployment form of a trained network. Like the
// float Network, its ops reuse output buffers between calls, so one
// instance must not be shared between goroutines; use CloneForWorker.
type QuantNetwork struct {
	Topology string
	InC, InT int
	norm     *InputNorm
	inScale  float32
	ops      []qOp
	qinB     *qBatchTensor // reused quantized-input buffer
}

// CloneForWorker returns a copy sharing the immutable int8 weights and
// scales but owning private activation buffers, for data-parallel
// inference.
func (q *QuantNetwork) CloneForWorker() *QuantNetwork {
	c := &QuantNetwork{Topology: q.Topology, InC: q.InC, InT: q.InT, inScale: q.inScale}
	c.norm = q.norm.CloneForWorker().(*InputNorm)
	c.ops = make([]qOp, len(q.ops))
	for i, op := range q.ops {
		switch v := op.(type) {
		case *qConv:
			cp := *v
			cp.outB, cp.colBuf, cp.accBuf = nil, nil, nil
			c.ops[i] = &cp
		case *qDense:
			cp := *v
			cp.outBB, cp.accBuf, cp.lastOutB = nil, nil, nil
			c.ops[i] = &cp
		default:
			c.ops[i] = op
		}
	}
	return c
}

// Quantize converts a trained float network into int8 form, calibrating
// activation scales on the given tensors (typically a few hundred windows
// from the validation split). The affine layers are folded first.
func Quantize(n *Network, calib []*Tensor) (*QuantNetwork, error) {
	if len(calib) == 0 {
		return nil, fmt.Errorf("tcn: quantization requires calibration data")
	}
	folded := FoldAffine(n)

	// Pass 1: record per-stage activation max-abs on the float net.
	maxAbs := make([]float32, len(folded.Layers)+1)
	for _, x := range calib {
		cur := x
		for li, l := range folded.Layers {
			if li == 0 {
				if _, ok := l.(*InputNorm); !ok {
					return nil, fmt.Errorf("tcn: quantization expects InputNorm first, got %T", l)
				}
			}
			cur = l.Forward(cur)
			for _, v := range cur.Data {
				a := v
				if a < 0 {
					a = -a
				}
				if a > maxAbs[li] {
					maxAbs[li] = a
				}
			}
		}
	}
	scaleOf := func(li int) float32 {
		m := maxAbs[li]
		if m == 0 {
			m = 1
		}
		return m / 127
	}

	q := &QuantNetwork{Topology: n.Topology, InC: n.InC, InT: n.InT}
	var inScale float32
	denseSeen := 0
	totalDense := 0
	for _, l := range folded.Layers {
		if _, ok := l.(*Dense); ok {
			totalDense++
		}
	}
	curT := n.InT
	for li, l := range folded.Layers {
		switch v := l.(type) {
		case *InputNorm:
			q.norm = v
			inScale = scaleOf(li) // scale of the normalized input
			q.inScale = inScale
		case *ReLU:
			// Fuse into the preceding conv/dense and re-point both the
			// op's output scale and the running input scale at the
			// post-ReLU calibration (the clipped range quantizes finer).
			s := scaleOf(li)
			switch prev := q.ops[len(q.ops)-1].(type) {
			case *qConv:
				prev.relu = true
				prev.outScale = s
			case *qDense:
				prev.relu = true
				prev.outScale = s
			}
			inScale = s
		case *Conv1D:
			qc := &qConv{
				inC: v.InC, outC: v.OutC, kernel: v.Kernel,
				dilation: v.Dilation, stride: v.Stride,
				inScale:  inScale,
				outScale: scaleOf(li),
				inT:      curT,
			}
			qc.weight, qc.wScale, qc.bias = quantizeRows(v.Weight.W, v.Bias.W, inScale)
			q.ops = append(q.ops, qc)
			inScale = qc.outScale
			curT = (curT-1)/v.Stride + 1
		case *Flatten:
			// No-op on the flat int8 buffer; shapes are implicit.
		case *Dense:
			denseSeen++
			qd := &qDense{
				in: v.In, out: v.Out,
				inScale:  inScale,
				outScale: scaleOf(li),
				last:     denseSeen == totalDense,
			}
			qd.weight, qd.wScale, qd.bias = quantizeRows(v.Weight.W, v.Bias.W, inScale)
			q.ops = append(q.ops, qd)
			inScale = qd.outScale
		default:
			return nil, fmt.Errorf("tcn: cannot quantize layer %T", l)
		}
	}
	return q, nil
}

// quantizeRows quantizes a weight matrix with one row per output channel
// (len(bias) rows) to int8 under a symmetric per-row scale, and each bias
// at inScale·wScale[o], the scale of that row's int32 accumulator.
func quantizeRows(w, bias []float32, inScale float32) (qw []int8, wScale []float32, qb []int32) {
	perRow := len(w) / len(bias)
	qw = make([]int8, len(w))
	wScale = make([]float32, len(bias))
	qb = make([]int32, len(bias))
	for o := range bias {
		row := w[o*perRow : (o+1)*perRow]
		var m float32
		for _, a := range row {
			if a < 0 {
				a = -a
			}
			if a > m {
				m = a
			}
		}
		if m == 0 {
			m = 1
		}
		s := m / 127
		wScale[o] = s
		for j, a := range row {
			qw[o*perRow+j] = clampI8(float32(math.Round(float64(a / s))))
		}
		qb[o] = int32(math.Round(float64(bias[o] / (inScale * s))))
	}
	return qw, wScale, qb
}

// Forward runs int8 inference on one window and returns the scalar float
// output. It is a one-sample view over ForwardBatch, so a single window
// takes the same im2col + int8 GEMM lowering as a batch.
func (q *QuantNetwork) Forward(x *Tensor) float32 {
	one := BatchTensor{N: 1, C: x.C, T: x.T, Data: x.Data}
	var z [1]float32
	q.ForwardBatch(&one, z[:])
	return z[0]
}

// MACs returns the int8 multiply-accumulate count per inference.
func (q *QuantNetwork) MACs() int64 {
	var total int64
	for _, op := range q.ops {
		total += op.macs()
	}
	return total
}
