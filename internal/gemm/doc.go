// Package gemm provides the matrix-multiply micro-kernels the TCN batch
// inference and training paths lower onto: a float32 kernel pair (plain
// and B-transposed: F32, F32NT) and an int8 pair with int32 accumulators
// (S8, S8NT), the CMSIS-NN-style shape the deployed quantized path uses.
//
// All kernels are accumulate-in-place: C must be pre-initialized by the
// caller (bias rows, running gradients, or zeros) and each output element
// is updated as one sequential chain
//
//	c = ((c + a·b₀) + a·b₁) + … + a·b_{k-1}
//
// with the k products added one at a time in ascending-k order. That
// makes the float32 results bitwise identical to the scalar reference
// loops the rest of the repository keeps (bias-seeded, ascending-tap
// accumulation), so batched inference reproduces serial inference
// exactly; the int8 kernels are exact integer arithmetic and
// order-independent by construction.
//
// # SIMD dispatch
//
// On amd64 (unless built with -tags purego) the exported kernels dispatch
// to SSE2 panel kernels in gemm_amd64.s under one rule: vectorize over
// INDEPENDENT OUTPUT ELEMENTS, never over the reduction dimension. Each
// XMM lane owns one output column's accumulator; per k step the float32
// panels broadcast one A operand and run exactly one MULPS and one ADDPS
// per accumulator register — multiply-then-add with per-operation IEEE
// rounding, no FMA, no horizontal sums — so every lane walks the same
// ascending-k chain as the scalar loop and the results stay bitwise
// identical (fuzzed against the generic kernels across ragged shapes in
// fuzz_test.go). The float32 panels come 16-, 8- and 4-columns wide with
// sub-4 tails finished by the scalar loop; the int8 panel is 16 wide and
// may fold k-pairs with PMADDWD dual-MACs, which integer exactness (and
// associative two's-complement addition) makes unobservable.
//
// The NT kernels reach the same panels by packing B into a pooled k×n
// Bᵀ panel first (pack.go): the transpose changes which operand is
// contiguous, not the per-element reduction order, so bitwise equality
// carries over. Packing is gated on m ≥ ntPackMinM — below that the k·n
// transpose cannot amortize and the scalar dot-product form is already
// the right shape. The layout is deliberately ISA-agnostic: an arm64
// NEON port implements the same panels behind gemm_noasm.go's build tags
// without touching callers (float32 lanes carry the identical chain on
// any IEEE vector unit).
//
// Hot paths: the panel inner loops are the single hottest code in the
// repository — every Conv1D and Dense layer of both TCN topologies,
// float32 and int8, serial-equivalent batch inference and training
// backprop all funnel through them via im2col (internal/models/tcn),
// per-sample for TimePPG-Big and packed across the batch for
// TimePPG-Small's small panels (the cross-sample lowering; see
// tcn.crossSampleMaxPanel). All int8 inference takes this route, one
// window included: QuantNetwork.Forward is a batch of one, so the
// per-window int8 TimePPG-Small of every simulated day and every
// single-window serve chunk runs on the S8/S8NT panels.
//
// BENCH kernels: GemmF32_48x144x128 and GemmS8_48x144x128 measure the raw
// kernels at a representative TimePPG-Big convolution shape,
// GemmF32_8x24x{32,1024} and GemmS8_8x24x{32,1024} at the TimePPG-Small
// final-block shape per-sample and at the cross-sample width;
// TimePPG{Small,Big}ForwardBatch32/win and Quant{Small,Big}ForwardBatch32/win
// measure them through the full networks, next to the one-window rows
// (BENCH_*.json, written by chrisbench -json).
package gemm
