// The live index: the incrementally maintained counterpart of Index for
// streaming ingestion. Index is built once from a finished histogram and
// keeps a global descending-probability rank order that would cost O(N) to
// repair per update; LiveIndex drops the rank order and keeps only the
// popcount buckets, which makes every mutation O(1) — a new outcome is an
// append to its weight bucket, an increment is an in-place mass update — while
// still supporting the triangle-inequality-pruned ball queries the
// reconstruction engines are built on.
package dist

import (
	"fmt"
	"math/bits"

	"repro/internal/bitstr"
)

// LiveIndex is a mutable popcount-bucketed index over an n-bit outcome
// space. Each outcome gets a dense int32 slot on first sight; outcomes and
// masses live in slot-indexed slices, so callers that keep per-outcome state
// (core.Incremental) can address it by slot instead of hashing the outcome.
// Bucket w holds the slots of exactly the outcomes with Hamming weight w in
// insertion order, so iteration is deterministic for a fixed ingest sequence
// and a ball query at radius d from x may skip every bucket outside
// [popcount(x)-d, popcount(x)+d]. Masses are in "count space": callers feed
// raw (unnormalized) shot weights and divide by Total at snapshot time. The
// zero value is not usable; construct with NewLiveIndex.
type LiveIndex struct {
	n       int
	xs      []bitstr.Bits // by slot
	ms      []float64     // by slot
	buckets [][]int32     // slots by popcount 0..n, insertion order
	pos     map[bitstr.Bits]int32
	total   float64
}

// NewLiveIndex returns an empty live index over n-bit outcomes.
func NewLiveIndex(n int) *LiveIndex {
	if n < 1 || n > bitstr.MaxBits {
		panic(fmt.Sprintf("dist: live index width %d out of range [1,%d]", n, bitstr.MaxBits))
	}
	return &LiveIndex{
		n:       n,
		buckets: make([][]int32, n+1),
		pos:     make(map[bitstr.Bits]int32),
	}
}

// NumBits returns the outcome width in bits.
func (ix *LiveIndex) NumBits() int { return ix.n }

// Len returns the number of indexed outcomes, which is also one past the
// highest slot.
func (ix *LiveIndex) Len() int { return len(ix.xs) }

// Total returns the accumulated mass across all outcomes.
func (ix *LiveIndex) Total() float64 { return ix.total }

// Contains reports whether outcome x has been indexed.
func (ix *LiveIndex) Contains(x bitstr.Bits) bool {
	_, ok := ix.pos[x]
	return ok
}

// Mass returns the accumulated mass on outcome x (zero if never indexed).
func (ix *LiveIndex) Mass(x bitstr.Bits) float64 {
	s, ok := ix.pos[x]
	if !ok {
		return 0
	}
	return ix.ms[s]
}

// Add accumulates mass m onto outcome x, inserting it into its weight bucket
// on first sight, and returns the outcome's slot and whether the outcome is
// new. Slots are assigned densely in first-sight order and never change.
// Mass must be non-negative; a zero-mass insert keeps the outcome in the
// support (HAMMER distinguishes "observed with vanishing likelihood" from
// "never observed").
func (ix *LiveIndex) Add(x bitstr.Bits, m float64) (slot int32, isNew bool) {
	if x&^bitstr.AllOnes(ix.n) != 0 {
		panic(fmt.Sprintf("dist: outcome %b exceeds %d bits", x, ix.n))
	}
	if m < 0 {
		panic(fmt.Sprintf("dist: negative mass %v", m))
	}
	ix.total += m
	if s, ok := ix.pos[x]; ok {
		ix.ms[s] += m
		return s, false
	}
	s := int32(len(ix.xs))
	ix.pos[x] = s
	ix.xs = append(ix.xs, x)
	ix.ms = append(ix.ms, m)
	w := bits.OnesCount64(x)
	ix.buckets[w] = append(ix.buckets[w], s)
	return s, true
}

// Outcomes returns the outcome of every slot. The slice is shared; callers
// must not mutate it.
func (ix *LiveIndex) Outcomes() []bitstr.Bits { return ix.xs }

// Masses returns the accumulated mass of every slot. The slice is shared;
// callers must not mutate it.
func (ix *LiveIndex) Masses() []float64 { return ix.ms }

// Bucket returns the slots of the outcomes of Hamming weight w in insertion
// order. The slice is shared; callers must not mutate it.
func (ix *LiveIndex) Bucket(w int) []int32 {
	if w < 0 || w > ix.n {
		return nil
	}
	return ix.buckets[w]
}

// Range calls fn for every indexed outcome in deterministic order: buckets in
// ascending Hamming weight, entries within a bucket in insertion order.
func (ix *LiveIndex) Range(fn func(x bitstr.Bits, m float64)) {
	for _, b := range ix.buckets {
		for _, s := range b {
			fn(ix.xs[s], ix.ms[s])
		}
	}
}

// Neighbor is one outcome found by a LiveIndex ball query: its slot and its
// Hamming distance from the query outcome.
type Neighbor struct {
	Slot int32
	D    int32
}

// Ball writes every indexed outcome at Hamming distance 1..maxD from x into
// buf and returns the filled prefix; x itself (distance 0) is left out. buf
// must hold Len entries. Buckets outside the weight window are skipped
// wholesale; entries inside it are confirmed with an exact distance check.
// Order is deterministic: buckets in ascending weight, entries in insertion
// order. The scan does not branch on the distance — each candidate is
// written at the cursor, and the cursor advances only past those inside the
// ball — so the outcome of the check costs no misprediction.
func (ix *LiveIndex) Ball(x bitstr.Bits, maxD int, buf []Neighbor) []Neighbor {
	xs := ix.xs
	wx := bits.OnesCount64(x)
	r := uint(maxD)
	k := 0
	for w := max(wx-maxD, 0); w <= min(wx+maxD, ix.n); w++ {
		for _, s := range ix.buckets[w] {
			d := bits.OnesCount64(x ^ xs[s])
			buf[k] = Neighbor{s, int32(d)}
			var in int
			if uint(d-1) < r {
				in = 1
			}
			k += in
		}
	}
	return buf[:k]
}

// Dist converts the accumulated masses to a normalized sparse distribution.
// It panics when no mass has been accumulated.
func (ix *LiveIndex) Dist() *Dist {
	if ix.total <= 0 {
		panic("dist: cannot convert empty live index to a distribution")
	}
	d := New(ix.n)
	inv := 1 / ix.total
	ix.Range(func(x bitstr.Bits, m float64) {
		d.p[x] = m * inv
	})
	d.total = 1
	return d
}
