package main

import (
	"bytes"
	"math/rand"
	"sort"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ring"
)

// This file holds the kernel- and scheme-layer probes of the traced
// pass: direct calls on a ring.Ring and on ckks.Encoder / Encryptor /
// Evaluator built at the workload's (N, limb count), full-level operands.
// They are what lets a change in engine busy time be traced down to the
// kernel that caused it.

// medianOf times f n times and returns the median duration.
func medianOf(n int, f func()) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = time.Since(t)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[n/2]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const (
	ringReps = 50
	ckksReps = 15
)

// probeRing measures the ring kernels on every limb (ciphertext and
// special) of a top-level polynomial.
func probeRing(params ckks.Parameters, m metrics) error {
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return err
	}
	r := ctx.R
	level := r.MaxLevel()
	limbs := r.Limbs(level, true)
	rng := rand.New(rand.NewSource(1))
	a, b, out := r.NewPoly(level), r.NewPoly(level), r.NewPoly(level)
	r.SampleUniform(rng, limbs, a)
	r.SampleUniform(rng, limbs, b)

	m.set("ring.ntt_us", us(medianOf(ringReps, func() { r.NTT(limbs, a) })), "us")
	m.set("ring.intt_us", us(medianOf(ringReps, func() { r.INTT(limbs, a) })), "us")
	m.set("ring.mul_coeffs_us", us(medianOf(ringReps, func() { r.MulCoeffs(limbs, a, b, out) })), "us")
	m.set("ring.mul_coeffs_add_us", us(medianOf(ringReps, func() { r.MulCoeffsThenAdd(limbs, a, b, out) })), "us")
	galEl := ring.GaloisElementForRotation(params.LogN, 1)
	m.set("ring.automorphism_us", us(medianOf(ringReps, func() { r.Automorphism(limbs, a, galEl, out) })), "us")
	// Rescale's shape: divide the ciphertext limbs by the top one.
	m.set("ring.divide_exact_us", us(medianOf(ringReps, func() {
		r.DivideExactByLimb(level, r.Limbs(level-1, false), a, out)
	})), "us")
	// Key-switch digit raise: limb 0 onto every limb.
	m.set("ring.extend_limb_us", us(medianOf(ringReps, func() { r.ExtendLimb(0, limbs, a, out) })), "us")

	was := r.Parallel
	r.Parallel = false
	serial := medianOf(ringReps, func() { r.NTT(limbs, a) })
	r.Parallel = true
	parallel := medianOf(ringReps, func() { r.NTT(limbs, a) })
	r.Parallel = was
	m.set("ring.parallel_speedup", float64(serial)/float64(parallel), "ratio")
	return nil
}

// probeCKKS measures the scheme operations on fresh top-level
// ciphertexts, plus ciphertext marshalling.
func probeCKKS(params ckks.Parameters, m metrics) error {
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return err
	}
	kg := ckks.NewKeyGenerator(ctx, 7)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	t := time.Now()
	kg.GenRotationKeys(sk, []int{9}, false)
	m.set("ckks.rotkey_gen_ms", ms(time.Since(t)), "ms")
	hoisted := []int{1, 2, 3, 4, 5, 6, 7, 8}
	rtk := kg.GenRotationKeys(sk, hoisted, false)

	enc := ckks.NewEncoder(ctx)
	ept := ckks.NewEncryptor(ctx, pk, 8)
	dec := ckks.NewDecryptor(ctx, sk)
	ev := ckks.NewEvaluator(ctx, rlk, rtk)
	rng := rand.New(rand.NewSource(2))
	values := make([]float64, params.Slots())
	for i := range values {
		values[i] = rng.Float64()
	}
	top := params.MaxLevel()
	var pt *ckks.Plaintext
	var ct *ckks.Ciphertext
	m.set("ckks.encode_us", us(medianOf(ckksReps, func() { pt = enc.Encode(values, top, params.Scale) })), "us")
	m.set("ckks.encrypt_us", us(medianOf(ckksReps, func() { ct = ept.Encrypt(pt) })), "us")
	m.set("ckks.decrypt_decode_us", us(medianOf(ckksReps, func() { enc.Decode(dec.DecryptNew(ct)) })), "us")
	var prod *ckks.Ciphertext
	m.set("ckks.mul_plain_us", us(medianOf(ckksReps, func() { prod = ev.MulPlain(ct, pt) })), "us")
	m.set("ckks.mul_relin_us", us(medianOf(ckksReps, func() { ev.Mul(ct, ct) })), "us")
	m.set("ckks.rescale_us", us(medianOf(ckksReps, func() { ev.Rescale(prod) })), "us")
	m.set("ckks.rotate_us", us(medianOf(ckksReps, func() { ev.Rotate(ct, 1) })), "us")
	m.set("ckks.rotate_hoisted8_us", us(medianOf(ckksReps, func() { ev.RotateHoisted(ct, hoisted) })), "us")

	var wire bytes.Buffer
	var werr error
	m.set("ckks.ct_marshal_us", us(medianOf(ckksReps, func() {
		wire.Reset()
		if err := ctx.WriteCiphertext(&wire, ct); err != nil {
			werr = err
		}
	})), "us")
	if werr != nil {
		return werr
	}
	m.set("ckks.ct_bytes", float64(wire.Len()), "B")
	raw := wire.Bytes()
	m.set("ckks.ct_unmarshal_us", us(medianOf(ckksReps, func() {
		if _, err := ctx.ReadCiphertext(bytes.NewReader(raw)); err != nil {
			werr = err
		}
	})), "us")
	return werr
}
