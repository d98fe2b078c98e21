package ir

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// fuzzPrime is the modulus of the fake engines: every slot is an integer
// mod p, so each way Combine can evaluate a sum is exact and all of them
// must agree bit for bit.
const fuzzPrime = 1<<31 - 1

// modP reduces a signed integer into [0, p).
func modP(v int64) uint64 { return uint64((v%fuzzPrime + fuzzPrime) % fuzzPrime) }

// modVec is the fake engines' ciphertext and plaintext handle.
type modVec []uint64

// modEngine is an exact mod-p fake of the calls Combine makes, counting
// them; any other Engine call reaches the nil embedded interface and
// panics.
type modEngine struct {
	Engine
	calls map[string]int
}

func (e *modEngine) MulPlainPt(ct Ct, pt Pt) Ct {
	e.calls["MulPlainPt"]++
	a, b := ct.(modVec), pt.(modVec)
	out := make(modVec, len(a))
	for i := range a {
		out[i] = a[i] * b[i] % fuzzPrime
	}
	return out
}

func (e *modEngine) MulInt(ct Ct, n int64) Ct {
	e.calls["MulInt"]++
	a := ct.(modVec)
	out := make(modVec, len(a))
	for i := range a {
		out[i] = a[i] * modP(n) % fuzzPrime
	}
	return out
}

func (e *modEngine) Add(x, y Ct) Ct {
	e.calls["Add"]++
	a, b := x.(modVec), y.(modVec)
	out := make(modVec, len(a))
	for i := range a {
		out[i] = (a[i] + b[i]) % fuzzPrime
	}
	return out
}

// sumModP is Σᵢ weights[i]·termᵢ mod p computed directly, the reference
// both fused fakes return.
func sumModP(args []Ct, pts []Pt, weights []int64) modVec {
	out := make(modVec, len(args[0].(modVec)))
	for i, a := range args {
		for j, x := range a.(modVec) {
			if pts != nil && pts[i] != nil {
				x = x * pts[i].(modVec)[j] % fuzzPrime
			}
			out[j] = (out[j] + modP(weights[i])*x) % fuzzPrime
		}
	}
	return out
}

// recombineOnly offers ir.Recombiner but not ir.PlainRecombiner.
type recombineOnly struct{ *modEngine }

func (e recombineOnly) Recombine(args []Ct, weights []int64) Ct {
	e.calls["Recombine"]++
	return sumModP(args, nil, weights)
}

// plainRecombiner offers ir.PlainRecombiner.
type plainRecombiner struct{ *modEngine }

func (e plainRecombiner) PlainRecombine(args []Ct, pts []Pt, weights []int64) Ct {
	e.calls["PlainRecombine"]++
	return sumModP(args, pts, weights)
}

// combineCase decodes data into Combine's operands: a header byte (1–8
// terms; bit 3 passes a non-nil pts even when no term is a product), then
// per term a flag byte (bit 0: a product, weight 1), four slot bytes, and
// either four plaintext bytes or an eight-byte weight. Term 0's weight is
// always 1. Missing bytes read as zero.
func combineCase(data []byte) (args []Ct, pts []Pt, weights []int64) {
	next := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	vec := func() modVec {
		v := make(modVec, 4)
		for i, b := range next(4) {
			v[i] = uint64(b)
		}
		return v
	}
	head := next(1)[0]
	n := 1 + int(head&7)
	pts = make([]Pt, n)
	products := false
	for i := 0; i < n; i++ {
		product := next(1)[0]&1 == 1
		args = append(args, vec())
		w := int64(1)
		if product {
			pts[i], products = vec(), true
		} else if u := int64(binary.LittleEndian.Uint64(next(8))); i > 0 {
			w = u
		}
		weights = append(weights, w)
	}
	if !products && head&8 == 0 {
		pts = nil
	}
	return args, pts, weights
}

// FuzzCombine: over one exact mod-p fake, Combine's three dispatch shapes
// — PlainRecombine, MulPlainPt per product plus Recombine, and MulPlainPt
// plus the MulInt/Add chain — return the same value, and each makes the
// calls its branch promises.
func FuzzCombine(f *testing.F) {
	w := func(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	f.Add([]byte{0})
	f.Add([]byte{8, 0, 1, 2, 3, 4})
	f.Add(cat([]byte{2, 1, 1, 2, 3, 4, 5, 6, 7, 8, 0, 9, 9, 9, 9}, w(-3), []byte{1, 2, 2, 2, 2, 3, 3, 3, 3}))
	f.Add(cat([]byte{3, 0, 1, 1, 1, 1}, w(0), []byte{0, 2, 2, 2, 2}, w(math.MinInt64),
		[]byte{0, 3, 3, 3, 3}, w(math.MaxInt64), []byte{0, 4, 4, 4, 4}, w(1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		args, pts, weights := combineCase(data)
		products, scaled := 0, 0
		for i := range args {
			if pts != nil && pts[i] != nil {
				products++
			} else if i > 0 && weights[i] != 1 {
				scaled++
			}
		}
		shapes := []struct {
			name  string
			e     func(*modEngine) Engine
			calls map[string]int
		}{
			{"PlainRecombiner", func(m *modEngine) Engine { return plainRecombiner{m} },
				map[string]int{"PlainRecombine": 1}},
			{"Recombiner", func(m *modEngine) Engine { return recombineOnly{m} },
				map[string]int{"MulPlainPt": products, "Recombine": 1}},
			{"chain", func(m *modEngine) Engine { return m },
				map[string]int{"MulPlainPt": products, "MulInt": scaled, "Add": len(args) - 1}},
		}
		want := sumModP(args, pts, weights)
		for _, s := range shapes {
			m := &modEngine{calls: map[string]int{}}
			got := Combine(s.e(m), args, pts, weights)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %v, want %v (weights %v)", s.name, got, want, weights)
			}
			for k, v := range s.calls {
				if v == 0 {
					delete(s.calls, k)
				}
			}
			if !reflect.DeepEqual(m.calls, s.calls) {
				t.Fatalf("%s: calls %v, want %v", s.name, m.calls, s.calls)
			}
		}
	})
}
