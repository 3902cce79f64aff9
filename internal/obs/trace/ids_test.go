package trace

import (
	"strings"
	"testing"
)

func TestIDStringParseRoundTrip(t *testing.T) {
	tid := TraceIDFrom(0x0123456789abcdef, 0xfedcba9876543210)
	if got, want := tid.String(), "0123456789abcdeffedcba9876543210"; got != want {
		t.Fatalf("TraceID.String = %q, want %q", got, want)
	}
	back, ok := ParseTraceID(tid.String())
	if !ok || back != tid {
		t.Fatalf("ParseTraceID round trip: ok=%v back=%v", ok, back)
	}
	sid := SpanIDFrom(0x00ff00ff00ff00ff)
	if got, want := sid.String(), "00ff00ff00ff00ff"; got != want {
		t.Fatalf("SpanID.String = %q, want %q", got, want)
	}
	// Uppercase accepted on parse, rendered lowercase.
	up, ok := ParseTraceID(strings.ToUpper(tid.String()))
	if !ok || up != tid {
		t.Fatal("uppercase hex rejected")
	}
	for _, bad := range []string{"", "0123", strings.Repeat("0", 31), strings.Repeat("g", 32), strings.Repeat("0", 33)} {
		if _, ok := ParseTraceID(bad); ok {
			t.Fatalf("ParseTraceID(%q) accepted", bad)
		}
	}
	if !(TraceID{}).IsZero() || !(SpanID{}).IsZero() {
		t.Fatal("zero IDs not IsZero")
	}
	if tid.IsZero() || sid.IsZero() {
		t.Fatal("non-zero IDs IsZero")
	}
}

func TestHeaderFormatParseRoundTrip(t *testing.T) {
	sc := SpanContext{
		Trace:   TraceIDFrom(0xa1a2a3a4a5a6a7a8, 0xb1b2b3b4b5b6b7b8),
		Span:    SpanIDFrom(0xc1c2c3c4c5c6c7c8),
		Sampled: true,
	}
	h := sc.Format()
	want := "00-a1a2a3a4a5a6a7a8b1b2b3b4b5b6b7b8-c1c2c3c4c5c6c7c8-01"
	if h != want {
		t.Fatalf("Format = %q, want %q", h, want)
	}
	back, err := ParseHeader(h)
	if err != nil || back != sc {
		t.Fatalf("ParseHeader round trip: err=%v back=%+v", err, back)
	}

	sc.Sampled = false
	h2 := sc.Format()
	if !strings.HasSuffix(h2, "-00") {
		t.Fatalf("unsampled flags = %q", h2)
	}
	back2, err := ParseHeader(h2)
	if err != nil || back2.Sampled {
		t.Fatalf("unsampled round trip: err=%v sampled=%v", err, back2.Sampled)
	}

	// Reserved flag bits ignored, sampled bit still honored.
	h3 := h[:53] + "ff"
	back3, err := ParseHeader(h3)
	if err != nil || !back3.Sampled {
		t.Fatalf("flags ff: err=%v sampled=%v", err, back3.Sampled)
	}

	// Invalid context renders empty.
	if got := (SpanContext{}).Format(); got != "" {
		t.Fatalf("zero context Format = %q", got)
	}
}

func TestParseHeaderRejectsMalformed(t *testing.T) {
	valid := SpanContext{
		Trace:   TraceIDFrom(1, 2),
		Span:    SpanIDFrom(3),
		Sampled: true,
	}.Format()
	cases := []string{
		"",
		"00",
		valid[:54],                   // truncated
		valid + "0",                  // trailing data
		"01" + valid[2:],             // unknown version
		"0x" + valid[2:],             // non-hex version
		valid[:3] + "zz" + valid[5:], // non-hex trace id
		strings.Replace(valid, "-", "_", 1),
		// zero trace id
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("1", 16) + "-01",
		// zero span id
		"00-" + strings.Repeat("1", 32) + "-" + strings.Repeat("0", 16) + "-01",
		// non-hex flags
		valid[:53] + "zz",
	}
	for _, c := range cases {
		if _, err := ParseHeader(c); err == nil {
			t.Fatalf("ParseHeader(%q) accepted", c)
		}
	}
	if _, err := ParseHeader(valid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
}

// FuzzTraceHeader drives the satellite requirement: Parse∘Format must be
// the identity on valid contexts, and Parse must never panic or accept a
// context it would re-render differently (malformed IDs, truncation,
// flipped sampling bits all come from the fuzzer's mutations of valid
// headers).
func FuzzTraceHeader(f *testing.F) {
	f.Add("00-a1a2a3a4a5a6a7a8b1b2b3b4b5b6b7b8-c1c2c3c4c5c6c7c8-01")
	f.Add("00-a1a2a3a4a5a6a7a8b1b2b3b4b5b6b7b8-c1c2c3c4c5c6c7c8-00")
	f.Add("00-A1A2A3A4A5A6A7A8B1B2B3B4B5B6B7B8-C1C2C3C4C5C6C7C8-FF")
	f.Add("00-00000000000000000000000000000000-0000000000000000-01")
	f.Add("01-a1a2a3a4a5a6a7a8b1b2b3b4b5b6b7b8-c1c2c3c4c5c6c7c8-01")
	f.Add("00-a1a2a3a4a5a6a7a8b1b2b3b4b5b6b7b8-c1c2c3c4c5c6c7c8")
	f.Add("")
	f.Add("00---")
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseHeader(s)
		if err != nil {
			if sc != (SpanContext{}) {
				t.Fatalf("error with non-zero context: %+v", sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted invalid context from %q", s)
		}
		h := sc.Format()
		back, err := ParseHeader(h)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", h, s, err)
		}
		if back != sc {
			t.Fatalf("round trip drift: %+v → %q → %+v", sc, h, back)
		}
		// Format is canonical: lowercase, exact width, version 00.
		if len(h) != 55 || h != strings.ToLower(h) {
			t.Fatalf("non-canonical format %q", h)
		}
	})
}
