package main

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir"
)

func TestClassifyExit(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, exitOK},
		{"deadline", context.DeadlineExceeded, exitDeadline},
		{"cancelled", fmt.Errorf("stage: %w", context.Canceled), exitDeadline},
		{"noise", guard.ErrNoiseBudgetExhausted, exitExhausted},
		{"level", fmt.Errorf("op: %w", ir.ErrLevelExhausted), exitExhausted},
		{"corrupt ct", guard.ErrCorruptCiphertext, exitCorrupt},
		{"scale drift", ir.ErrScaleDrift, exitCorrupt},
		{"bad input", henn.ErrBadInput, exitCorrupt},
		{"unclassified", errors.New("boom"), exitSetup},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := classifyExit(tc.err); got != tc.want {
				t.Fatalf("classifyExit(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

func TestRetryableClass(t *testing.T) {
	// Deterministic failures must not be retried: the same attempt fails
	// the same way every time.
	for _, code := range []int{exitCorrupt, exitExhausted} {
		if retryableClass(code) {
			t.Errorf("class %s (exit %d) must not be retryable", exitClass(code), code)
		}
	}
	// Transient classes are retried.
	for _, code := range []int{exitSetup, exitDeadline} {
		if !retryableClass(code) {
			t.Errorf("class %s (exit %d) must be retryable", exitClass(code), code)
		}
	}
}

func TestRetryBackoff(t *testing.T) {
	// The deterministic (jitter = 0) floor doubles per attempt until the
	// cap: d/2 with d = base<<attempt.
	for attempt, wantFloor := range []time.Duration{
		baseBackoff / 2, baseBackoff, 2 * baseBackoff, 4 * baseBackoff,
	} {
		if got := retryBackoff(attempt, 0); got != wantFloor {
			t.Errorf("retryBackoff(%d, 0) = %v, want %v", attempt, got, wantFloor)
		}
	}
	// Jitter stays within [d/2, d] and the cap holds for large attempts.
	for attempt := 0; attempt < 40; attempt++ {
		for _, j := range []float64{0, 0.25, 0.5, 0.999} {
			got := retryBackoff(attempt, j)
			if got < baseBackoff/2 || got > maxBackoff {
				t.Fatalf("retryBackoff(%d, %v) = %v outside [%v, %v]",
					attempt, j, got, baseBackoff/2, maxBackoff)
			}
		}
	}
	if got := retryBackoff(63, 0.999); got > maxBackoff {
		t.Fatalf("backoff cap exceeded: %v", got)
	}
}
