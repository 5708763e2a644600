package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// This file is the request decoder for /v1/reconstruct, /v1/batch members,
// and the CLI. It reads histogram objects straight from the body bytes into
// the canonical histogram (width plus entries sorted by outcome, see
// dist.SortEntries) that the cache key and the distribution are both built
// from. It accepts and rejects exactly what decoding into a
// map[string]float64 (or the wrapper struct) with encoding/json followed by
// dist.FromHistogram did — same JSON grammar, null masses as 0, last-wins
// duplicate keys — which FuzzDecodeReconstruct checks against that
// reference.

// reconstructRequest is one decoded reconstruction request: the canonical
// histogram, the optional per-request config override, and the optional
// deadline budget ({"deadline_ms": N} — 0 means no deadline).
type reconstructRequest struct {
	bits     int
	entries  []dist.Entry
	override *wireConfig
	deadline time.Duration
}

// schedDeadline maps the wire budget onto the scheduler's absolute form,
// anchored at decode time so queueing counts against the client's budget.
func (rr *reconstructRequest) schedDeadline() time.Time {
	if rr.deadline <= 0 {
		return time.Time{}
	}
	return time.Now().Add(rr.deadline)
}

// decodeReconstruct decodes and validates one reconstruction request: a bare
// {"0101": mass} histogram object, or a {"counts": {...}} wrapper optionally
// carrying a per-request {"config": {...}} override and a {"deadline_ms": N}
// budget. The bare form is read first, by the histogram scanner alone: it is
// the shape cache-hit traffic arrives in, and a wrapper body fails it at its
// first non-number value. The wrapper envelope is rare and small, so
// encoding/json reads it — case-insensitive field names, unknown fields
// ignored — and hands "counts" to the same scanner. A body that is a
// histogram but not a valid one (bad keys, mixed widths, negative or zero
// mass) is rejected here, before anything is hashed or looked up.
func decodeReconstruct(body []byte) (*reconstructRequest, error) {
	var bare wireHistogram
	bareErr := bare.UnmarshalJSON(body)
	if bareErr == nil {
		return bare.request()
	}
	var wrapped struct {
		Counts     wireHistogram `json:"counts"`
		Config     *wireConfig   `json:"config"`
		DeadlineMS int64         `json:"deadline_ms"`
	}
	if err := json.Unmarshal(body, &wrapped); err != nil || !wrapped.Counts.members {
		return nil, fmt.Errorf("request is neither a histogram object nor {\"counts\": ...}: %w", bareErr)
	}
	if wrapped.DeadlineMS < 0 {
		return nil, fmt.Errorf("deadline_ms must be non-negative, got %d", wrapped.DeadlineMS)
	}
	rr, err := wrapped.Counts.request()
	if err != nil {
		return nil, err
	}
	rr.override = wrapped.Config
	rr.deadline = time.Duration(wrapped.DeadlineMS) * time.Millisecond
	return rr, nil
}

// decodeHistogram is the CLI's reading of the same shapes (per-request config
// overrides and deadlines are an HTTP concern; the CLI's configuration comes
// from flags), returned in the library's map form.
func decodeHistogram(body []byte) (map[string]float64, error) {
	rr, err := decodeReconstruct(body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(rr.entries))
	for _, e := range rr.entries {
		out[bitstr.Format(e.X, rr.bits)] = e.P
	}
	return out, nil
}

// wireHistogram collects one histogram object's entries in arrival order.
// Like the map it replaces, it counts every member, valid or not, and a
// later {"counts": null} empties it.
type wireHistogram struct {
	bits    int
	entries []dist.Entry
	members bool
	// err is the first key that cannot be an outcome; decoding continues so
	// the body's shape still decides between the bare and wrapped forms.
	err error
}

// UnmarshalJSON reads one JSON document that must be a histogram object (or
// null, the empty histogram), adding its members to h. Like decoding into
// a map, a second object merges into the first and null empties h.
func (h *wireHistogram) UnmarshalJSON(body []byte) error {
	d := wireDecoder{buf: body}
	switch d.next() {
	case '{':
		if err := d.histogram(h); err != nil {
			return err
		}
	case 'n':
		if !d.null() {
			return d.syntax("in literal null")
		}
		*h = wireHistogram{entries: h.entries[:0]}
	default:
		return errType
	}
	if d.ws(); d.pos != len(d.buf) {
		return d.syntax("after top-level value")
	}
	return nil
}

// add records one member. A duplicate outcome is kept until request sorts,
// so the last value wins; when the entries of a narrow histogram outgrow
// the 2^bits distinct outcomes it can have, they are compacted in place, so
// a body of repeated keys cannot grow memory past its distinct outcomes.
func (h *wireHistogram) add(x bitstr.Bits, bits int, p float64, keyErr error) {
	h.members = true
	if h.err != nil {
		return
	}
	if keyErr != nil {
		h.err = keyErr
		return
	}
	if len(h.entries) == 0 && h.bits == 0 {
		h.bits = bits
	} else if bits != h.bits {
		h.err = fmt.Errorf("mixed key lengths (%d and %d bits)", h.bits, bits)
		return
	}
	if len(h.entries) == cap(h.entries) && bits < 32 && len(h.entries) >= 1<<bits {
		h.entries = dist.SortEntries(h.entries)
	}
	h.entries = append(h.entries, dist.Entry{X: x, P: p})
}

// request canonicalizes and validates the collected histogram.
func (h *wireHistogram) request() (*reconstructRequest, error) {
	if h.err != nil {
		return nil, h.err
	}
	if !h.members {
		return nil, fmt.Errorf("empty histogram")
	}
	entries := dist.SortEntries(h.entries)
	if err := dist.ValidateSorted(h.bits, entries); err != nil {
		return nil, err
	}
	return &reconstructRequest{bits: h.bits, entries: entries}, nil
}

// wireDecoder walks one JSON document. Its errors say why a body was
// refused; which error a refused body gets can differ from encoding/json's,
// whether it is refused cannot.
type wireDecoder struct {
	buf []byte
	pos int
}

var (
	errEOF  = errors.New("unexpected end of JSON input")
	errType = errors.New("value of the wrong JSON type")
)

func (d *wireDecoder) syntax(what string) error {
	if d.pos >= len(d.buf) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.buf[d.pos], what, d.pos)
}

func (d *wireDecoder) ws() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// next skips whitespace and returns the next byte, or 0 at the end (which
// no caller accepts, so a literal NUL byte fails where the end would).
func (d *wireDecoder) next() byte {
	d.ws()
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// null consumes a null literal if one is next.
func (d *wireDecoder) null() bool {
	d.ws()
	if len(d.buf)-d.pos >= 4 && string(d.buf[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// histogram reads one histogram object into h: keys are outcomes, values
// masses (a number, or null for 0). Plain '0'/'1' keys and plain numbers —
// the hot path — are read in place. A value of any other type ends the read
// with errType: the body is not a histogram object.
func (d *wireDecoder) histogram(h *wireHistogram) error {
	d.pos++ // '{'
	if d.next() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.next() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		x, bits, keyErr, err := d.outcome()
		if err != nil {
			return err
		}
		if h.entries == nil && h.err == nil && keyErr == nil {
			// Size the entries once from the body: each member takes at
			// least bits+4 bytes ("k":0), and a narrow histogram has at
			// most 2^bits outcomes.
			est := (len(d.buf)-d.pos)/(bits+4) + 1
			if bits < 32 && est > 1<<bits {
				est = 1 << bits
			}
			h.entries = make([]dist.Entry, 0, est)
		}
		if d.next() != ':' {
			return d.syntax("after object key")
		}
		d.pos++
		var p float64
		switch c := d.next(); {
		case c == '-' || '0' <= c && c <= '9':
			if p, err = d.float(); err != nil {
				return err
			}
		case d.null():
		default:
			return errType
		}
		h.add(x, bits, p, keyErr)
		switch d.next() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// outcome reads an object key as an outcome bitstring. err is a syntax
// error; keyErr means the key is well-formed JSON but not an outcome.
func (d *wireDecoder) outcome() (x bitstr.Bits, bits int, keyErr, err error) {
	start := d.pos + 1
	i := start
	for i < len(d.buf) {
		// One unsigned compare per character: a two-way '0'/'1' test
		// mispredicts on every random bit.
		c := d.buf[i] - '0'
		if c > 1 {
			break
		}
		x = x<<1 | bitstr.Bits(c)
		i++
	}
	if bits = i - start; i < len(d.buf) && d.buf[i] == '"' && bits >= 1 && bits <= bitstr.MaxBits {
		d.pos = i + 1
		return x, bits, nil, nil
	}
	// Escapes, other characters, or a bad length: decode the key in full.
	raw, err := d.str()
	if err != nil {
		return 0, 0, nil, err
	}
	key := unquote(raw)
	if len(key) == 0 || len(key) > bitstr.MaxBits {
		return 0, 0, fmt.Errorf("key length %d out of range [1,%d]", len(key), bitstr.MaxBits), nil
	}
	x, keyErr = bitstr.Parse(string(key))
	return x, len(key), keyErr, nil
}

// str consumes one string literal and returns it raw, quotes included.
func (d *wireDecoder) str() ([]byte, error) {
	start := d.pos
	d.pos++
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; {
		case c == '"':
			d.pos++
			return d.buf[start:d.pos], nil
		case c == '\\':
			d.pos++
			if d.pos >= len(d.buf) {
				return nil, errEOF
			}
			switch d.buf[d.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for k := 0; k < 4; k++ {
					if d.pos >= len(d.buf) {
						return nil, errEOF
					}
					if !isHex(d.buf[d.pos]) {
						return nil, d.syntax("in \\u hexadecimal character escape")
					}
					d.pos++
				}
			default:
				return nil, d.syntax("in string escape code")
			}
		case c < 0x20:
			return nil, d.syntax("in string literal")
		default:
			d.pos++
		}
	}
	return nil, errEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote returns the text of a string literal str has validated. Plain
// literals are returned in place; escapes and invalid UTF-8, which clients
// rarely send, go through encoding/json so their decoding is the standard's
// own (invalid sequences become U+FFFD).
func unquote(raw []byte) []byte {
	if inner := raw[1 : len(raw)-1]; bytes.IndexByte(inner, '\\') < 0 && utf8.Valid(inner) {
		return inner
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		// Unreachable: str accepted the literal.
		return nil
	}
	return []byte(s)
}

// number consumes one number literal (JSON grammar) and returns it raw.
func (d *wireDecoder) number() ([]byte, error) {
	start := d.pos
	if d.pos < len(d.buf) && d.buf[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.buf) && d.buf[d.pos] == '0':
		d.pos++
	case d.pos < len(d.buf) && '1' <= d.buf[d.pos] && d.buf[d.pos] <= '9':
		d.digits()
	default:
		return nil, d.syntax("in numeric literal")
	}
	if d.pos < len(d.buf) && d.buf[d.pos] == '.' {
		d.pos++
		if d.digits() == 0 {
			return nil, d.syntax("after decimal point in numeric literal")
		}
	}
	if d.pos < len(d.buf) && (d.buf[d.pos] == 'e' || d.buf[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.buf) && (d.buf[d.pos] == '+' || d.buf[d.pos] == '-') {
			d.pos++
		}
		if d.digits() == 0 {
			return nil, d.syntax("in exponent of numeric literal")
		}
	}
	return d.buf[start:d.pos], nil
}

func (d *wireDecoder) digits() int {
	start := d.pos
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// float reads a number as a float64. Shot counts — plain integers of up to
// 15 digits, exact in a float64 — skip strconv; a number out of float64's
// range is the wrong type, as it is for encoding/json.
func (d *wireDecoder) float() (float64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	if len(lit) <= 15 {
		var v uint64
		plain := true
		for _, c := range lit {
			if c < '0' || c > '9' {
				plain = false
				break
			}
			v = v*10 + uint64(c-'0')
		}
		if plain {
			return float64(v), nil
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, errType
	}
	return f, nil
}
