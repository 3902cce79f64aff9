package trace

import (
	"errors"
	"strings"
)

// TraceID is a 128-bit identifier shared by every span of one trace.
type TraceID [16]byte

// SpanID is a 64-bit identifier for one span within a trace.
type SpanID [8]byte

// TraceIDFrom packs two 64-bit words big-endian into a TraceID.
func TraceIDFrom(hi, lo uint64) TraceID {
	var id TraceID
	putU64(id[:8], hi)
	putU64(id[8:], lo)
	return id
}

// SpanIDFrom packs one 64-bit word big-endian into a SpanID.
func SpanIDFrom(v uint64) SpanID {
	var id SpanID
	putU64(id[:], v)
	return id
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// IsZero reports whether the ID is all zeroes (the invalid value).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is all zeroes (the invalid value).
func (id SpanID) IsZero() bool { return id == SpanID{} }

const hexDigits = "0123456789abcdef"

func hexEncode(dst []byte, src []byte) {
	for i, b := range src {
		dst[i*2] = hexDigits[b>>4]
		dst[i*2+1] = hexDigits[b&0x0f]
	}
}

// hexDecode fills dst from exactly len(dst)*2 lowercase-or-uppercase hex
// digits; it reports whether src was well-formed.
func hexDecode(dst []byte, src string) bool {
	if len(src) != len(dst)*2 {
		return false
	}
	for i := range dst {
		hi, ok1 := hexVal(src[i*2])
		lo, ok2 := hexVal(src[i*2+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// String renders the trace ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var buf [32]byte
	hexEncode(buf[:], id[:])
	return string(buf[:])
}

// String renders the span ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	var buf [16]byte
	hexEncode(buf[:], id[:])
	return string(buf[:])
}

// ParseTraceID parses 32 hex digits into a TraceID.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if !hexDecode(id[:], s) {
		return TraceID{}, false
	}
	return id, true
}

// SpanContext is the part of a span that crosses process boundaries: which
// trace it belongs to, which span is the remote parent, and whether the
// trace was sampled at its root.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context identifies a real trace and span.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// HeaderName is the wire header carrying a SpanContext across the adapi
// HTTP boundary.
const HeaderName = "X-Adaudit-Trace"

// headerVersion is the format version prefix. Only "00" exists; unknown
// versions are rejected so the format can evolve.
const headerVersion = "00"

const flagSampled = 0x01

// Format renders the context in the header wire format:
//
//	00-<32 hex trace id>-<16 hex span id>-<2 hex flags>
//
// (the W3C traceparent shape, chosen so the format is familiar without
// importing anything). Invalid contexts render as "".
func (sc SpanContext) Format() string {
	if !sc.Valid() {
		return ""
	}
	var buf [55]byte
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hexEncode(buf[3:35], sc.Trace[:])
	buf[35] = '-'
	hexEncode(buf[36:52], sc.Span[:])
	buf[52] = '-'
	flags := byte(0)
	if sc.Sampled {
		flags = flagSampled
	}
	buf[53] = hexDigits[flags>>4]
	buf[54] = hexDigits[flags&0x0f]
	return string(buf[:])
}

// ErrBadHeader reports a malformed X-Adaudit-Trace value.
var ErrBadHeader = errors.New("trace: malformed " + HeaderName + " header")

// ParseHeader parses the wire format produced by Format. It is strict:
// exactly four dash-separated fields, version 00, all-hex IDs of exact
// width, non-zero trace and span IDs, and no trailing data. Flag bits
// beyond sampled are ignored (reserved).
func ParseHeader(s string) (SpanContext, error) {
	// 55 = 2 (version) + 1 + 32 (trace) + 1 + 16 (span) + 1 + 2 (flags).
	if len(s) != 55 {
		return SpanContext{}, ErrBadHeader
	}
	if !strings.HasPrefix(s, headerVersion+"-") || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, ErrBadHeader
	}
	var sc SpanContext
	if !hexDecode(sc.Trace[:], s[3:35]) || !hexDecode(sc.Span[:], s[36:52]) {
		return SpanContext{}, ErrBadHeader
	}
	var flags [1]byte
	if !hexDecode(flags[:], s[53:55]) {
		return SpanContext{}, ErrBadHeader
	}
	if !sc.Valid() {
		return SpanContext{}, ErrBadHeader
	}
	sc.Sampled = flags[0]&flagSampled != 0
	return sc, nil
}
