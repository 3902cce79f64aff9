package adapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// The dialect codecs read and write JSON without reflection. Their decoders
// walk a body once with a cursor; their encoders append straight into one
// buffer the exact bytes encoding/json produces for the same values.

// maxDepth bounds how deeply a JSON text may nest; a deeper text is a syntax
// error, as it is for encoding/json.
const maxDepth = 10000

// errAmbiguousKey marks a key the cursor refuses although encoding/json
// would store its value: a known key repeated in one object, or one that
// matches a known key only case-insensitively.
var errAmbiguousKey = errors.New("adapi: ambiguous key")

// cursor walks one JSON text once, left to right. It accepts exactly the
// texts encoding/json accepts, and a decoder that reads a value through it
// stores what encoding/json would store in the matching Go field: a null
// leaves the field unset, an unknown key is skipped, and a value of the
// wrong type is refused. It refuses two things encoding/json stores
// leniently: a key that matches a known field only case-insensitively, and
// a known key repeated in one object.
//
// A syntax error fails the whole text. A refused value fails only the value
// the decoder began (see begin), so one bad slot of a batch envelope fails
// that slot alone.
type cursor struct {
	buf   []byte
	pos   int
	depth int
	err   error // first syntax error; once set, every read returns zero
	bad   error // first value refused since the current value began
}

// syntax records a syntax error; the first one wins.
func (c *cursor) syntax(msg string) {
	if c.err != nil {
		return
	}
	if c.pos >= len(c.buf) {
		c.err = fmt.Errorf("unexpected end of JSON input")
		return
	}
	c.err = fmt.Errorf("invalid character %q at offset %d: %s", c.buf[c.pos], c.pos, msg)
}

// refuse records a value the decoder will not store; the first one wins.
func (c *cursor) refuse(format string, args ...any) {
	if c.bad == nil && c.err == nil {
		c.bad = fmt.Errorf(format, args...)
	}
}

// begin starts decoding one value whose refusals are its own: it sets the
// refusals met so far aside for settle to restore.
func (c *cursor) begin() (outer error) {
	outer, c.bad = c.bad, nil
	return outer
}

// settle ends the value begun with begin, or with outer nil the whole
// text. It returns the first failure met in between, a syntax error before
// a refusal, and restores the refusals set aside. A value at the top level
// must end the text.
func (c *cursor) settle(outer error) error {
	if c.depth == 0 && c.err == nil {
		if c.peek(); c.pos < len(c.buf) {
			c.syntax("after top-level value")
		}
	}
	err := c.bad
	c.bad = outer
	if c.err != nil {
		return c.err
	}
	return err
}

// peek skips whitespace and returns the next byte: 0 at the end of the text
// or once a syntax error is recorded.
func (c *cursor) peek() byte {
	for c.err == nil && c.pos < len(c.buf) {
		switch b := c.buf[c.pos]; b {
		case ' ', '\t', '\n', '\r':
			c.pos++
		default:
			return b
		}
	}
	return 0
}

// entries reads the object that is the next value, calling fn with each
// member's key for fn to read the member's value. A null reads as an object
// without members, as it leaves a Go struct or map unset; any other value
// is refused and skipped.
func (c *cursor) entries(fn func(key []byte)) {
	for more := c.enter('{', '}', "an object"); more; more = c.next('}') {
		fn(c.key())
	}
}

// members reads the object that is the next value as a Go struct whose
// fields are names, calling fn with a member's index in names for fn to
// read its value. Other members are skipped. A known key repeated in the
// object, or a key matching a name only case-insensitively, is refused.
func (c *cursor) members(names []string, fn func(i int)) {
	var seen uint32
	c.entries(func(key []byte) {
		if i := keyIndex(names, key); i >= 0 {
			if seen&(1<<i) == 0 {
				seen |= 1 << i
				fn(i)
				return
			}
			c.refuse("%w: %q repeated", errAmbiguousKey, key)
		}
		for _, name := range names {
			if strings.EqualFold(string(key), name) {
				c.refuse("%w: %q is not %q", errAmbiguousKey, key, name)
			}
		}
		c.skip()
	})
}

// keyIndex returns key's position in names, or -1.
func keyIndex(names []string, key []byte) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	return -1
}

// elements reads the array that is the next value, calling fn to read each
// element. A null reads as an empty array; any other value is refused and
// skipped.
func (c *cursor) elements(fn func()) {
	for more := c.enter('[', ']', "an array"); more; more = c.next(']') {
		fn()
	}
}

// enter steps into the object or array (open, close) that is the next
// value and reports whether a member or element follows. A null or an
// empty one has none; any other value is refused as not want, and skipped.
func (c *cursor) enter(open, close byte, want string) bool {
	switch c.peek() {
	case open:
		c.pos++
		if c.depth++; c.depth > maxDepth {
			c.syntax("exceeded max depth")
			return false
		}
		if c.peek() == close {
			c.pos++
			c.depth--
			return false
		}
		return c.err == nil
	case 'n':
		c.literal("null")
	default:
		c.mismatch(want)
	}
	return false
}

// next moves past the separator after a member or element, and reports
// whether another follows before close.
func (c *cursor) next(close byte) bool {
	switch c.peek() {
	case ',':
		c.pos++
		return true
	case close:
		c.pos++
		c.depth--
	default:
		c.syntax("after object member or array element")
	}
	return false
}

// null consumes the next value if it is null, and reports whether it was.
func (c *cursor) null() bool {
	if c.peek() != 'n' {
		return false
	}
	c.literal("null")
	return true
}

// key reads a member's key and its colon.
func (c *cursor) key() []byte {
	if c.peek() != '"' {
		c.syntax("looking for beginning of object key string")
		return nil
	}
	key := c.text()
	if c.peek() != ':' {
		c.syntax("after object key")
		return nil
	}
	c.pos++
	return key
}

// str reads a string value. A null reads as the empty string; any other
// value is refused and skipped.
func (c *cursor) str() []byte {
	switch c.peek() {
	case '"':
		return c.text()
	case 'n':
		c.literal("null")
	default:
		c.mismatch("a string")
	}
	return nil
}

// text reads the string token at the cursor and returns its value. A token
// holding an escape or a non-ASCII byte is unquoted, and its escapes
// checked, by encoding/json, so escapes, surrogates and invalid UTF-8 keep
// their exact meaning; any other token's value is its own bytes, without a
// copy.
func (c *cursor) text() []byte {
	start := c.pos
	plain := true
	for c.pos++; c.pos < len(c.buf); c.pos++ {
		switch b := c.buf[c.pos]; {
		case b == '"':
			c.pos++
			if plain {
				return c.buf[start+1 : c.pos-1]
			}
			var s string
			if err := json.Unmarshal(c.buf[start:c.pos], &s); err != nil {
				c.pos = start
				c.syntax(err.Error())
				return nil
			}
			return []byte(s)
		case b == '\\':
			plain = false
			c.pos++ // the escaped byte never ends the token
		case b < 0x20:
			c.syntax("in string literal")
			return nil
		case b >= 0x80:
			plain = false
		}
	}
	c.syntax("in string literal")
	return nil
}

// int64 reads an integer value. A null reads as 0; a number with a
// fraction or an exponent, one out of range, and any other value are
// refused, as encoding/json refuses them for an integer field.
func (c *cursor) int64() int64 {
	switch b := c.peek(); {
	case b == '-' || '0' <= b && b <= '9':
		tok, integral := c.number()
		if tok == nil {
			return 0
		}
		if n, err := strconv.ParseInt(string(tok), 10, 64); integral && err == nil {
			return n
		}
		c.refuse("adapi: number %s is not an integer", tok)
	case b == 'n':
		c.literal("null")
	default:
		c.mismatch("a number")
	}
	return 0
}

// int reads an integer value into an int, refusing one out of int's range.
func (c *cursor) int() int {
	n := c.int64()
	if int64(int(n)) != n {
		c.refuse("adapi: number %d overflows int", n)
		return 0
	}
	return int(n)
}

// number scans a number token and reports whether it is an integer literal.
func (c *cursor) number() (tok []byte, integral bool) {
	start := c.pos
	if c.buf[c.pos] == '-' {
		c.pos++
	}
	switch {
	case c.pos < len(c.buf) && c.buf[c.pos] == '0':
		c.pos++
	case !c.digits():
		c.syntax("in numeric literal")
		return nil, false
	}
	integral = true
	if c.pos < len(c.buf) && c.buf[c.pos] == '.' {
		integral = false
		c.pos++
		if !c.digits() {
			c.syntax("after decimal point in numeric literal")
			return nil, false
		}
	}
	if c.pos < len(c.buf) && (c.buf[c.pos] == 'e' || c.buf[c.pos] == 'E') {
		integral = false
		c.pos++
		if c.pos < len(c.buf) && (c.buf[c.pos] == '+' || c.buf[c.pos] == '-') {
			c.pos++
		}
		if !c.digits() {
			c.syntax("in exponent of numeric literal")
			return nil, false
		}
	}
	return c.buf[start:c.pos], integral
}

// digits consumes a run of decimal digits and reports whether there was one.
func (c *cursor) digits() bool {
	start := c.pos
	for c.pos < len(c.buf) && '0' <= c.buf[c.pos] && c.buf[c.pos] <= '9' {
		c.pos++
	}
	return c.pos > start
}

// literal consumes the literal word (true, false or null).
func (c *cursor) literal(word string) {
	for i := 0; i < len(word); i++ {
		if c.pos >= len(c.buf) || c.buf[c.pos] != word[i] {
			c.syntax("in literal " + word)
			return
		}
		c.pos++
	}
}

// skip consumes the next value, whatever it is, checking its syntax.
func (c *cursor) skip() {
	switch b := c.peek(); {
	case b == '{':
		c.entries(func([]byte) { c.skip() })
	case b == '[':
		c.elements(c.skip)
	case b == '"':
		c.text()
	case b == '-' || '0' <= b && b <= '9':
		c.number()
	case b == 't':
		c.literal("true")
	case b == 'f':
		c.literal("false")
	case b == 'n':
		c.literal("null")
	default:
		c.syntax("looking for beginning of value")
	}
}

// mismatch refuses the next value as not the wanted type and skips it.
func (c *cursor) mismatch(want string) {
	at := c.pos
	c.skip()
	if c.err == nil {
		c.refuse("adapi: value at offset %d is not %s", at, want)
	}
}

// sep appends the comma that separates a member or an element from the one
// before it, unless it is the first of its object or array.
func sep(dst []byte) []byte {
	if b := dst[len(dst)-1]; b != '{' && b != '[' {
		dst = append(dst, ',')
	}
	return dst
}

// appendKey appends an object member's key, which is plain ASCII, and its
// colon.
func appendKey(dst []byte, key string) []byte {
	dst = append(sep(dst), '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

// appendString appends s as a JSON string, escaped exactly as encoding/json
// escapes it. A string of printable ASCII without a quote, a backslash or
// an HTML-special character is appended as it is; any other is quoted by
// encoding/json itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b >= 0x7f || strings.IndexByte(`"\<>&`, b) >= 0 {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
