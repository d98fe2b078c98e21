package telemetry

import (
	"context"
	"strings"
	"testing"
)

func TestParseTraceparentRoundTrip(t *testing.T) {
	const hdr = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent: %v", err)
	}
	if got := tc.Traceparent(); got != hdr {
		t.Fatalf("round trip = %q, want %q", got, hdr)
	}
	if tc.TraceIDString() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID = %q", tc.TraceIDString())
	}
	if tc.SpanIDString() != "00f067aa0ba902b7" {
		t.Fatalf("span ID = %q", tc.SpanIDString())
	}
	if tc.Flags != 1 {
		t.Fatalf("flags = %d, want 1", tc.Flags)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",          // missing flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",       // uppercase
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // zero span ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v00 has 4 fields
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	}
	for _, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted, want error", s)
		}
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// Future versions may append fields; they must still parse as v00.
	tc, err := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-vendorstuff")
	if err != nil {
		t.Fatalf("future-version traceparent rejected: %v", err)
	}
	if tc.TraceIDString() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID = %q", tc.TraceIDString())
	}
}

func TestNewTraceContextUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		tc := NewTraceContext()
		if !tc.Valid() {
			t.Fatal("NewTraceContext produced invalid context")
		}
		if tc.Flags&1 == 0 {
			t.Fatal("NewTraceContext not sampled")
		}
		key := tc.TraceIDString() + tc.SpanIDString()
		if seen[key] {
			t.Fatalf("duplicate IDs after %d draws", i)
		}
		seen[key] = true
	}
}

func TestChildKeepsTraceID(t *testing.T) {
	parent := NewTraceContext()
	child := parent.Child()
	if child.TraceID != parent.TraceID {
		t.Fatal("Child changed trace ID")
	}
	if child.SpanID == parent.SpanID {
		t.Fatal("Child kept parent span ID")
	}
	if !strings.HasPrefix(child.Traceparent(), "00-"+parent.TraceIDString()) {
		t.Fatalf("child traceparent %q lost trace ID", child.Traceparent())
	}
}

func TestTraceContextPlumbing(t *testing.T) {
	if _, ok := TraceContextFrom(context.Background()); ok {
		t.Fatal("empty context claimed a trace context")
	}
	tc := NewTraceContext()
	ctx := WithTraceContext(context.Background(), tc)
	got, ok := TraceContextFrom(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceContextFrom = %+v, %v; want %+v", got, ok, tc)
	}
	// An invalid (zero) context does not surface.
	ctx = WithTraceContext(context.Background(), TraceContext{})
	if _, ok := TraceContextFrom(ctx); ok {
		t.Fatal("zero trace context surfaced as valid")
	}
}
