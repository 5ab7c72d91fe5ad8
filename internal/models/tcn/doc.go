// Package tcn implements the Temporal Convolutional Network substrate of
// the reproduction: tensors, dilated 1-D convolutions with full manual
// backpropagation, an Adam trainer, the TimePPG-Small and TimePPG-Big
// topologies of the paper (3 blocks × 3 convolutional layers, two dilated
// and one strided per block), post-training int8 quantization and a
// file format for trained weights.
//
// The paper trains its networks with PyTorch and quantization-aware
// training and deploys them with X-CUBE-AI / TFLite; this package replaces
// that tooling with a self-contained pure-Go pipeline (see DESIGN.md §1).
// Absolute accuracy differs from the paper, but the architecture — and
// therefore the parameter/operation counts feeding the energy models — is
// preserved, as is the accuracy ordering between the zoo models.
//
// # Inference paths
//
// Every float32 layer has two forms. The scalar path (Forward/Backward
// over C×T Tensors) is the float reference: fused,
// allocation-free-after-warm-up kernels whose per-element accumulation
// order defines the numbers everything else must reproduce. The batched
// path (ForwardBatch/BackwardBatch over (N, C, T) BatchTensors) lowers
// convolution and dense layers onto the blocked, register-unrolled GEMM
// micro-kernels of internal/gemm via im2col packing — the CMSIS-NN-style
// structure the paper's deployed int8 kernels use — and is how the record
// builder, the estimator API (HRNet.EstimateHRBatch) and the trainer
// actually run. Batched float32 forward results are bitwise identical to
// the scalar loops: the GEMMs accumulate each output element bias-seeded
// in ascending (channel, tap) order without reassociation. Batched
// training additionally fuses the cross-worker gradient reduction and the
// Adam update into one parallel pass over parameter shards
// (Adam.StepFused).
//
// The int8 deployment form (QuantNetwork) has one forward implementation,
// the im2col + int8 GEMM lowering with exact int32 accumulation and a
// per-output-channel rescale; QuantNetwork.Forward runs one window through
// it as a batch of one. Its tests check it bitwise against a scalar
// direct-convolution oracle kept in the test files.
//
// All layer and network instances reuse their activation arenas between
// calls (float scalar and batched arenas are separate; the int8 one-window
// and batched calls share theirs), so none are safe for concurrent use;
// CloneForWorker/Clone produce worker copies sharing weights.
package tcn
