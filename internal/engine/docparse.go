// The fast decoder both persisted documents share: result records
// ({version, key, result}, resultdoc.go) and telemetry documents
// ({version, key, telemetry}, telemetrydoc.go). Each walks the bytes once,
// matches its schema's keys as bytes and parses numbers with strconv: no
// reflection, no validity pre-pass, and no allocation per field or
// sample. It accepts a strict subset of JSON — keys in exact case and at
// most once per object, no null, no unknown keys, numbers that strconv
// parses for the field's type, strings of printable ASCII without escapes
// except the key string's \" and \\ — and reports false for anything else,
// which the caller hands to json.Unmarshal. When it accepts, json.Unmarshal
// would succeed with an equal value; FuzzDecodeResult and
// FuzzDecodeTelemetry hold each decoder to that.
package engine

import (
	"bytes"
	"strconv"
	"strings"
)

// docParser is the fast decoder's cursor. Every method returns false as
// soon as the input leaves the accepted subset.
type docParser struct {
	b   []byte
	pos int
}

// Byte classes: JSON whitespace, and the bytes a string may hold inside
// the subset (printable ASCII but the quote and the backslash).
var isSpace, isPlain [256]bool

func init() {
	for _, c := range []byte(" \t\n\r") {
		isSpace[c] = true
	}
	for c := 0x20; c <= 0x7e; c++ {
		isPlain[c] = c != '"' && c != '\\'
	}
}

// space skips JSON whitespace.
func (p *docParser) space() {
	b, i := p.b, p.pos
	for i < len(b) && isSpace[b[i]] {
		i++
	}
	p.pos = i
}

// end reports whether only whitespace is left: a document is one value.
func (p *docParser) end() bool {
	p.space()
	return p.pos == len(p.b)
}

// consume skips whitespace and then the byte c, which must come next.
func (p *docParser) consume(c byte) bool {
	p.space()
	if p.pos < len(p.b) && p.b[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// next steps to the next member or element of an object or array whose
// opening byte is consumed: more is false (and ok true) at the closing
// byte end, and the separating comma is consumed between items.
func (p *docParser) next(end byte, first bool) (more, ok bool) {
	p.space()
	if p.pos == len(p.b) {
		return false, false
	}
	switch c := p.b[p.pos]; {
	case c == end:
		p.pos++
		return false, true
	case first:
		return true, true
	case c == ',':
		p.pos++
		return true, true
	}
	return false, false
}

// object reads an object. field reads the value of the member named key
// and returns the key's bit in the object's seen mask; it returns ok false
// for an unknown key or a value outside the subset, and a key seen twice
// leaves the subset too.
func (p *docParser) object(field func(key []byte) (bit uint, ok bool)) bool {
	if !p.consume('{') {
		return false
	}
	var seen uint16
	for first := true; ; first = false {
		more, ok := p.next('}', first)
		if !more {
			return ok
		}
		key, ok := p.str()
		if !ok || !p.consume(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&(1<<bit) != 0 {
			return false
		}
		seen |= 1 << bit
	}
}

// list reads an array of objects into a fresh slice with room for n
// elements; more grow it. An empty array decodes to an empty, non-nil
// slice, as encoding/json leaves it.
func list[T any](p *docParser, dst *[]T, n int, elem func(*T) bool) bool {
	if !p.consume('[') {
		return false
	}
	s := make([]T, 0, n)
	for first := true; ; first = false {
		more, ok := p.next(']', first)
		if !more {
			*dst = s
			return ok
		}
		var zero T
		s = append(s, zero)
		if !elem(&s[len(s)-1]) {
			return false
		}
	}
}

// opens counts the objects opened before the next closing bracket: read
// ahead of an array whose elements hold no arrays, the objects it holds.
// The count is capped by what the bytes could hold, so hostile input
// makes list allocate no more than encoding/json would for it.
func (p *docParser) opens() int {
	end := bytes.IndexByte(p.b[p.pos:], ']')
	if end <= 0 {
		return 0
	}
	return min(bytes.Count(p.b[p.pos:p.pos+end], []byte{'{'}), end/2)
}

// str reads a string of printable ASCII without escapes.
func (p *docParser) str() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	i := p.pos
	for i < len(p.b) && isPlain[p.b[i]] {
		i++
	}
	if i == len(p.b) || p.b[i] != '"' {
		return nil, false
	}
	s := p.b[p.pos:i]
	p.pos = i + 1
	return s, true
}

// text reads a string value inside the subset.
func (p *docParser) text(dst *string) bool {
	s, ok := p.str()
	*dst = string(s)
	return ok
}

// keyString reads a document's key: printable ASCII whose only escapes
// are \" and \\, which the canonical job encoding always carries. Each
// escape stands for the byte after its backslash.
func (p *docParser) keyString(dst *string) bool {
	if !p.consume('"') {
		return false
	}
	b, i, escapes := p.b, p.pos, 0
	for {
		for i < len(b) && isPlain[b[i]] {
			i++
		}
		if i+1 < len(b) && b[i] == '\\' && (b[i+1] == '"' || b[i+1] == '\\') {
			i += 2
			escapes++
			continue
		}
		break
	}
	if i == len(b) || b[i] != '"' {
		return false
	}
	raw := b[p.pos:i]
	p.pos = i + 1
	if escapes == 0 {
		*dst = string(raw)
		return true
	}
	var s strings.Builder
	s.Grow(len(raw) - escapes)
	for j := 0; j < len(raw); j++ {
		if raw[j] == '\\' {
			j++
		}
		s.WriteByte(raw[j])
	}
	*dst = s.String()
	return true
}

// number reads one token of the JSON number grammar.
func (p *docParser) number() ([]byte, bool) {
	p.space()
	b, i := p.b, p.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return nil, false
		}
	}
	tok := b[p.pos:i]
	p.pos = i
	return tok, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// uint, int and float parse a number as encoding/json does for the
// field's type; a strconv error (a fraction or an exponent in an integer
// field, a sign on an unsigned one, a value out of range) leaves the
// subset.
func (p *docParser) uint(dst *uint64) bool {
	tok, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	*dst = v
	return err == nil
}

func (p *docParser) int(dst *int) bool {
	tok, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*dst = int(v)
	return err == nil
}

func (p *docParser) float(dst *float64) bool {
	tok, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	*dst = v
	return err == nil
}
