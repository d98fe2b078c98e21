package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"cnnhe/internal/noise"
	"cnnhe/internal/primes"
)

// paperChainParams is the paper-shaped chain of length k, [40, 26×(k−2),
// 40], with a 60-bit special prime at Δ = 2^26: the benchmark's chains
// (k = 13, 10, 8) and the one heinfer and hebench build.
func paperChainParams(t testing.TB, logN, k int) Parameters {
	t.Helper()
	p, err := NewParameters(logN, primes.PaperShape(k, 26), 60, 1, math.Exp2(26))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDigitLayout pins the key-switch digit layout: the paper chains
// with a 60-bit special group their 26-bit limb pairs (13 → 8 digits,
// 10 → 6, 8 → 5, TestParameters' [40, 26×11] → 7), while the 30-bit test
// chains, TinyParameters, PaperParameters (a 40-bit special) and every
// Table IV/VI sweep split keep one limb per digit. At every level the
// digits are the top level's, cut at the level, and KeySwitchBound counts
// them and bounds the largest by (hi−lo)·Q_g.
func TestDigitLayout(t *testing.T) {
	mk := func(logN int, bits []int, specialBits int) func() (Parameters, error) {
		return func() (Parameters, error) { return NewParameters(logN, bits, specialBits, 1, math.Exp2(30)) }
	}
	sweep := func(k int) func() (Parameters, error) {
		return func() (Parameters, error) { return SweepParameters(9, 366, k, math.Exp2(float64(366/k))) }
	}
	tp, err := TestParameters()
	if err != nil {
		t.Fatal(err)
	}
	grouped := []struct {
		name string
		p    Parameters
		want [][2]int
	}{
		{"paper k=13", paperChainParams(t, 11, 13), [][2]int{{0, 1}, {1, 3}, {3, 5}, {5, 7}, {7, 9}, {9, 11}, {11, 12}, {12, 13}}},
		{"paper k=10", paperChainParams(t, 11, 10), [][2]int{{0, 1}, {1, 3}, {3, 5}, {5, 7}, {7, 9}, {9, 10}}},
		{"paper k=8", paperChainParams(t, 12, 8), [][2]int{{0, 1}, {1, 3}, {3, 5}, {5, 7}, {7, 8}}},
		{"TestParameters", tp, [][2]int{{0, 1}, {1, 3}, {3, 5}, {5, 7}, {7, 9}, {9, 11}, {11, 12}}},
	}
	for _, tc := range grouped {
		if got := tc.p.Digits(tc.p.MaxLevel()); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: digits %v, want %v", tc.name, got, tc.want)
		}
		checkCutLayout(t, tc.name, tc.p)
	}

	oneLimb := map[string]func() (Parameters, error){
		"TinyParameters":  TinyParameters,
		"PaperParameters": PaperParameters,
		"[40,30×4]/60":    mk(10, []int{40, 30, 30, 30, 30}, 60),
		"[40,30,30]/60":   mk(10, []int{40, 30, 30}, 60),
		"[40,30×4]/50":    mk(10, []int{40, 30, 30, 30, 30}, 50),
		"[40,30]/50":      mk(10, []int{40, 30}, 50),
		"[40,30×12]/60":   mk(11, []int{40, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30}, 60),
	}
	for k := 3; k <= 10; k++ {
		oneLimb[fmt.Sprintf("sweep 366/%d", k)] = sweep(k)
	}
	for name, build := range oneLimb {
		p, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for level := 0; level <= p.MaxLevel(); level++ {
			ds := p.Digits(level)
			if len(ds) != level+1 {
				t.Errorf("%s level %d: %d digits %v, want one per limb", name, level, len(ds), ds)
				continue
			}
			n, maxDigit := p.KeySwitchBound(level)
			maxQi := 0.0
			for i := 0; i <= level; i++ {
				maxQi = math.Max(maxQi, p.QiFloat(i))
			}
			if n != level+1 || maxDigit != maxQi {
				t.Errorf("%s level %d: KeySwitchBound (%d, %g), want (%d, %g)", name, level, n, maxDigit, level+1, maxQi)
			}
		}
	}
}

// checkCutLayout checks that the digits at every level are the top
// level's cut at the level, that each fits the margin below P, and that
// KeySwitchBound agrees with them.
func checkCutLayout(t *testing.T, name string, p Parameters) {
	t.Helper()
	top := p.Digits(p.MaxLevel())
	budget := p.Chain.P().BitLen() - keySwitchMarginBits
	for level := 0; level <= p.MaxLevel(); level++ {
		var want [][2]int
		for _, d := range top {
			if d[0] <= level {
				want = append(want, [2]int{d[0], min(d[1], level+1)})
			}
		}
		got := p.Digits(level)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s level %d: digits %v, want the top layout cut: %v", name, level, got, want)
		}
		largest := new(big.Int)
		for _, d := range got {
			qg := big.NewInt(1)
			for i := d[0]; i < d[1]; i++ {
				qg.Mul(qg, p.Chain.Moduli[i])
			}
			if d[1]-d[0] > 1 && qg.BitLen() > budget {
				t.Fatalf("%s level %d: digit %v has %d bits, over the %d-bit budget", name, level, d, qg.BitLen(), budget)
			}
			if qg.Mul(qg, big.NewInt(int64(d[1]-d[0]))); qg.Cmp(largest) > 0 {
				largest = qg
			}
		}
		n, maxDigit := p.KeySwitchBound(level)
		if f, _ := new(big.Float).SetInt(largest).Float64(); n != len(got) || maxDigit != f {
			t.Fatalf("%s level %d: KeySwitchBound (%d, %g), want (%d, %g)", name, level, n, maxDigit, len(got), f)
		}
	}
}

// groupedKit is a key set on the paper chain k = 13 at N = 2^10, whose
// digits group limb pairs (8 digits over 13 limbs).
func groupedKit(t testing.TB, rotations []int) *testKit {
	t.Helper()
	return newTestKit(t, paperChainParams(t, 10, 13), rotations, false)
}

// TestGroupedKeySwitchOpsEveryLevel checks Rotate, RotateHoisted and Mul
// against the plaintext result at every level of the grouped paper chain,
// on random slots in [−1, 1]. The tolerance is 2^-12 absolute: at
// Δ = 2^26 and N = 2^10, fresh encryption and one key switch add under
// 2^-13 per slot (TestKeySwitchBoundCoversMeasuredError measures the key
// switch), and any wrong digit, key or constant is off by O(1).
func TestGroupedKeySwitchOpsEveryLevel(t *testing.T) {
	const tol = 1.0 / 4096
	rots := []int{1, -3, 7}
	k := groupedKit(t, rots)
	rng := rand.New(rand.NewSource(43))
	slots := k.ctx.Params.Slots()
	top := k.ctx.Params.MaxLevel()
	rotated := func(v []float64, r int) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[((i+r)%len(v)+len(v))%len(v)]
		}
		return out
	}
	for level := top; level >= 0; level-- {
		vals := randVec(rng, slots, 1)
		ct := k.ept.Encrypt(k.enc.Encode(vals, level, k.ctx.Params.Scale))
		decode := func(c *Ciphertext) []float64 { return k.enc.Decode(k.dec.DecryptNew(c))[:slots] }
		check := func(op string, got, want []float64) {
			t.Helper()
			if e := maxErr(got, want); e > tol {
				t.Errorf("level %d %s: max error %.3g > %.3g", level, op, e, tol)
			}
		}
		check("Rotate(1)", decode(k.ev.Rotate(ct, 1)), rotated(vals, 1))
		hoisted := k.ev.RotateHoisted(ct, rots)
		for _, r := range rots {
			check(fmt.Sprintf("RotateHoisted(%d)", r), decode(hoisted[r]), rotated(vals, r))
		}
		if level == 0 {
			continue // a product at Δ² = 2^52 does not fit q_0
		}
		sq := make([]float64, slots)
		for i, v := range vals {
			sq[i] = v * v
		}
		check("Mul", decode(k.ev.Mul(ct, ct)), sq)
	}
}

// TestKeySwitchBoundCoversMeasuredError checks that the per-key-switch
// bound of the guard's graph noise budget, noise.Model.KeySwitch at
// KeySwitchBound(level), is at least the error one rotation adds at every
// level of the grouped paper chain: the decrypted rotation minus the
// rotated decryption of its input, times Δ (the bound's units).
func TestKeySwitchBoundCoversMeasuredError(t *testing.T) {
	k := groupedKit(t, []int{1})
	p := k.ctx.Params
	m := noise.Model{N: p.N(), Sigma: p.Sigma, H: p.H}
	pf, _ := new(big.Float).SetInt(p.Chain.P()).Float64()
	rng := rand.New(rand.NewSource(47))
	for level := 0; level <= p.MaxLevel(); level++ {
		ct := k.ept.Encrypt(k.enc.Encode(randVec(rng, p.Slots(), 1), level, p.Scale))
		before := k.enc.DecodeComplex(k.dec.DecryptNew(ct))
		after := k.enc.DecodeComplex(k.dec.DecryptNew(k.ev.Rotate(ct, 1)))
		measured := 0.0
		for i := range after {
			d := after[i] - before[(i+1)%len(before)]
			measured = math.Max(measured, math.Hypot(real(d), imag(d))*p.Scale)
		}
		digits, maxDigit := p.KeySwitchBound(level)
		bound := m.KeySwitch(digits, maxDigit, pf)
		t.Logf("level %d: %d digits, measured %.3g, bound %.3g", level, digits, measured, bound)
		if measured > bound {
			t.Errorf("level %d (%d digits): measured key-switch error %.3g exceeds the bound %.3g", level, digits, measured, bound)
		}
	}
}
