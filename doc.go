// Package cnnhe is a from-scratch Go reproduction of "Efficient
// Privacy-Preserving Convolutional Neural Networks with CKKS-RNS for
// Encrypted Image Classification" (IPPS 2025): a full RNS-CKKS
// homomorphic-encryption scheme, its original multiprecision CKKS baseline,
// a CNN training stack with self-learning polynomial activations, and a
// compiler that evaluates the trained networks on encrypted images.
//
// See README.md for the tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// cmd/hebench regenerates each of the paper's tables; BENCHMARK.json and
// benchmark/ are where latency is recorded and gated.
package cnnhe
