package wal

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
)

// Replay is the state a log's valid prefix folds to. ReplayBytes never
// fails: an arbitrary byte slice replays to whatever valid prefix it holds,
// with the torn tail reported rather than erred on — recovery decides what
// to do with it.
type Replay struct {
	// Meta is the create record; meaningful only when HasMeta is true.
	Meta SessionMeta
	// HasMeta reports whether a valid create record led the log. Without
	// one nothing is recoverable (not even the session width the pair
	// encoding is validated against).
	HasMeta bool
	// Shots is the total shot count of the replayed state.
	Shots int
	// Counts is the replayed histogram.
	Counts map[uint64]int
	// Records is the number of valid records folded in.
	Records int
	// Good is the byte offset the valid prefix ends at: every byte before
	// it belongs to a fully valid record, and recovery truncates here.
	Good int64
	// Torn reports trailing bytes past Good — a partially written or
	// corrupted record. Replay keeps everything before it.
	Torn bool
	// PairsSinceSnapshot counts the batch pairs folded in since the last
	// snapshot (or create) record, so a recovered log resumes its
	// compaction cadence instead of resetting it.
	PairsSinceSnapshot int
}

// ReplayBytes folds the valid prefix of b. It never panics and never
// allocates proportionally to claimed (rather than actual) record sizes,
// whatever bytes it is handed — the FuzzWALReplay contract.
func ReplayBytes(b []byte) *Replay {
	r := &Replay{Counts: make(map[uint64]int)}
	off := 0
	for off < len(b) {
		rest := b[off:]
		if len(rest) < headerBytes {
			break
		}
		plen := int(binary.LittleEndian.Uint32(rest[0:4]))
		if plen < 1 || plen > maxPayload || plen > len(rest)-headerBytes {
			break
		}
		payload := rest[headerBytes : headerBytes+plen]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			break
		}
		if !r.apply(payload) {
			break
		}
		off += headerBytes + plen
		r.Records++
		r.Good = int64(off)
	}
	r.Torn = r.Good < int64(len(b))
	return r
}

// apply folds one CRC-valid payload; false means the record is semantically
// invalid and replay must stop before it.
func (r *Replay) apply(payload []byte) bool {
	typ, body := payload[0], payload[1:]
	switch typ {
	case recCreate:
		// Exactly one create record, and it must lead the log.
		if r.Records != 0 {
			return false
		}
		var meta SessionMeta
		if err := json.Unmarshal(body, &meta); err != nil {
			return false
		}
		if meta.validate() != nil {
			return false
		}
		r.Meta, r.HasMeta = meta, true
		return true
	case recBatch:
		if !r.HasMeta {
			return false
		}
		return r.foldPairs(body, false)
	case recSnapshot:
		if !r.HasMeta {
			return false
		}
		return r.foldPairs(body, true)
	default:
		return false
	}
}

// foldPairs decodes a pair body and accumulates it; reset replaces the
// histogram first (snapshot semantics). The whole record is decoded and
// validated before any of it is applied — an invalid record must leave the
// replayed state exactly as it was.
func (r *Replay) foldPairs(body []byte, reset bool) bool {
	n, m := binary.Uvarint(body)
	if m <= 0 {
		return false
	}
	body = body[m:]
	// Each pair encodes to at least two bytes; a count claiming more pairs
	// than the body could hold is invalid before any allocation happens.
	if n > uint64(len(body))/2+1 {
		return false
	}
	mask := widthMask(r.Meta.Width)
	shots := r.Shots
	if reset {
		shots = 0
	}
	pairs := make([]Pair, 0, int(n))
	for i := uint64(0); i < n; i++ {
		x, m := binary.Uvarint(body)
		if m <= 0 {
			return false
		}
		body = body[m:]
		k64, m := binary.Uvarint(body)
		if m <= 0 {
			return false
		}
		body = body[m:]
		// shots <= maxTotalShots before the check, so neither side of
		// it can overflow.
		if x&^mask != 0 || k64 == 0 || k64 > maxTotalShots-uint64(shots) {
			return false
		}
		k := int(k64)
		shots += k
		pairs = append(pairs, Pair{X: x, K: k})
	}
	// Trailing garbage inside a CRC-valid payload means a writer bug or a
	// forged record; reject rather than silently ignore.
	if len(body) != 0 {
		return false
	}
	if reset {
		r.Counts = make(map[uint64]int, len(pairs))
		r.PairsSinceSnapshot = 0
	} else {
		r.PairsSinceSnapshot += len(pairs)
	}
	for _, p := range pairs {
		r.Counts[p.X] += p.K
	}
	r.Shots = shots
	return true
}
