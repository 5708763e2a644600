package core

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// liveShotsBatch draws one 512-shot batch in the shape of a live 10-qubit
// session: half the shots cluster around a key outcome (0-3 bit flips), half
// land uniformly, so the support saturates the whole 1024-outcome space
// within a few batches and each batch changes roughly 40% of it.
func liveShotsBatch(rng *rand.Rand, key bitstr.Bits, n int) []bitstr.Bits {
	shots := make([]bitstr.Bits, 512)
	for i := range shots {
		if rng.Intn(2) == 0 {
			x := key
			for f := rng.Intn(4); f > 0; f-- {
				x = bitstr.Flip(x, rng.Intn(n))
			}
			shots[i] = x
		} else {
			shots[i] = bitstr.Bits(rng.Intn(1 << n))
		}
	}
	return shots
}

// hashResult folds the exact bits of a snapshot's output probabilities (in
// ascending outcome order) and of its global CHS into h.
func hashResult(h io.Writer, res *Result) {
	var buf []byte
	put := func(a, b uint64) {
		buf = binary.LittleEndian.AppendUint64(buf, a)
		buf = binary.LittleEndian.AppendUint64(buf, b)
	}
	res.Out.Range(func(x bitstr.Bits, p float64) { put(uint64(x), math.Float64bits(p)) })
	for d, c := range res.GlobalCHS {
		put(uint64(d), math.Float64bits(c))
	}
	h.Write(buf)
}

// TestIncrementalGoldenHash pins every snapshot of a live-shots-shaped stream
// bit for bit: FNV-64a over the output probabilities and the CHS of each
// snapshot, for four option sets. The hashes were recorded from the
// map-and-closure implementation this engine replaced, so a layout or loop
// change that reorders even one floating-point addition fails here. Each
// shot weighs a random real in [0.5, 1.5) rather than 1: sums of whole shot
// counts are exact in float64 whatever their order and would hide a
// reordering, and real weights make equal outcome masses (whose filter
// decisions could differ from the batch engine's by a rounding) vanishingly
// unlikely. The default-options run crosses the periodic full resync
// naturally; the others pull it closer so they cross it too. A few rounds
// are also checked against the batch engine at 1e-12.
func TestIncrementalGoldenHash(t *testing.T) {
	const n = 10
	for _, tc := range []struct {
		name     string
		opts     Options
		rounds   int
		resyncIn int // 0 keeps fullResyncEvery
		want     uint64
	}{
		{"default", Options{}, fullResyncEvery + 8, 0, 0x8a0c9bbc702855d8},
		{"no-filter", Options{DisableFilter: true}, 40, 16, 0xf50c83ad8a4583ae},
		{"radius-2", Options{Radius: 2}, 40, 16, 0x95ee050d2b2dcc77},
		{"uniform", Options{Weights: UniformWeight}, 40, 16, 0x7e66411e15ffd621},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			key := bitstr.Bits(rng.Intn(1 << n))
			inc := NewIncremental(n, tc.opts)
			if tc.resyncIn != 0 {
				inc.resyncIn = tc.resyncIn
			}
			acc := dist.New(n)
			h := fnv.New64a()
			for round := 0; round < tc.rounds; round++ {
				for _, x := range liveShotsBatch(rng, key, n) {
					m := 0.5 + rng.Float64()
					inc.Add(x, m)
					acc.Add(x, m)
				}
				res := inc.Snapshot()
				hashResult(h, res)
				if round%30 == 5 {
					want := Reconstruct(acc.Clone().Normalize(), tc.opts)
					if d := dist.TVD(res.Out, want.Out); d > 1e-12 {
						t.Fatalf("round %d: TVD %v from batch", round, d)
					}
				}
			}
			if inc.Support() != 1<<n {
				t.Fatalf("support %d never saturated", inc.Support())
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("snapshot hash %#x, want %#x", got, tc.want)
			}
		})
	}
}
