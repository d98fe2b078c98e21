package main

import (
	"fmt"
	"math"

	"cnnhe/internal/nn"
	"cnnhe/internal/tensor"
)

// maxLogitError is the largest |encrypted logit − plaintext logit| a
// request may show before it counts as failed: 2^-6.
const maxLogitError = 1.0 / 64

// sample is one benchmark input with the answer the plaintext model
// gives for it.
type sample struct {
	Pixels []float64 // raw [0, 255] pixels, as clients send them
	Want   []float64 // nn.Model.Forward logits on the same pixels
}

// newSample runs the plaintext forward pass the encrypted answer is held
// to. shape is the model's input tensor shape.
func newSample(m *nn.Model, shape []int, pixels []float64) sample {
	x := tensor.New(shape...)
	for i, p := range pixels {
		x.Data[i] = p / 255
	}
	return sample{Pixels: pixels, Want: append([]float64(nil), m.Forward(x).Data...)}
}

// minMargin is the smallest gap between the plaintext model's two
// largest logits an input may have: four times the allowed logit error.
// Closer than that and a correct encrypted evaluation could still pick
// the other class, which would test the input, not the system.
const minMargin = 4 * maxLogitError

// margin is the gap between the two largest logits.
func (s sample) margin() float64 {
	best := argmax(s.Want)
	gap := math.Inf(1)
	for i, x := range s.Want {
		if i != best {
			gap = math.Min(gap, s.Want[best]-x)
		}
	}
	return gap
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// logitError summarises |encrypted − plaintext| over one answer's logits.
type logitError struct {
	Max   float64 // largest absolute error
	SumSq float64 // sum of squared errors
	N     int     // logits compared
}

// check compares decrypted logits with the plaintext answer. An argmax
// mismatch or an error above maxLogitError is a failure; the encrypted
// answer is never compared with another encrypted path.
func (s sample) check(got []float64) (logitError, error) {
	var e logitError
	if len(got) != len(s.Want) {
		return e, fmt.Errorf("oracle: %d logits, plaintext model gives %d", len(got), len(s.Want))
	}
	for i := range got {
		d := math.Abs(got[i] - s.Want[i])
		if math.IsNaN(d) {
			return e, fmt.Errorf("oracle: logit %d is NaN", i)
		}
		e.Max = math.Max(e.Max, d)
		e.SumSq += d * d
		e.N++
	}
	if a, b := argmax(got), argmax(s.Want); a != b {
		return e, fmt.Errorf("oracle: class %d, plaintext model says %d", a, b)
	}
	if e.Max > maxLogitError {
		return e, fmt.Errorf("oracle: logit error %.3g exceeds 2^-6", e.Max)
	}
	return e, nil
}

// tally counts one phase's requests. A request that errors, is refused
// or fails the oracle stays in the denominator.
type tally struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected"` // subset of Failed: HTTP 429/503/504
}

func (t *tally) add(r *result) {
	t.Sent++
	if r.Err != nil {
		t.Failed++
		if r.Meta.Rejected {
			t.Rejected++
		}
		return
	}
	t.Succeeded++
}
