package dist

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bitstr"
)

// A canonical histogram is the one form every wire histogram is reduced to
// before anything is derived from it: the outcome width n plus entries sorted
// by strictly ascending outcome, one entry per outcome. The HTTP decoder
// produces it straight from the request bytes; Canonical produces it from the
// string-keyed map form. The cache key and the distribution are both built
// from it, so a request's outcomes are sorted at most once.

// Canonical reduces a string-keyed histogram — the map form quantum backends
// and the library API exchange — to its canonical form. All keys must be
// '0'/'1' strings of one length in [1, bitstr.MaxBits]. Masses are not
// checked here; ValidateSorted does that for every source alike.
func Canonical(histogram map[string]float64) (int, []Entry, error) {
	if len(histogram) == 0 {
		return 0, nil, fmt.Errorf("empty histogram")
	}
	n := -1
	for k := range histogram {
		if n == -1 {
			n = len(k)
		} else if len(k) != n {
			return 0, nil, fmt.Errorf("mixed key lengths (%d and %d bits)", n, len(k))
		}
	}
	if n == 0 || n > bitstr.MaxBits {
		return 0, nil, fmt.Errorf("key length %d out of range [1,%d]", n, bitstr.MaxBits)
	}
	entries := make([]Entry, 0, len(histogram))
	for k, v := range histogram {
		x, err := bitstr.Parse(k)
		if err != nil {
			return 0, nil, err
		}
		entries = append(entries, Entry{x, v})
	}
	return n, SortEntries(entries), nil
}

// SortEntries puts entries listed in arrival order into canonical order in
// place and returns the canonical prefix. A repeated outcome keeps its last
// value — what decoding a JSON object into a map does — so the sort is
// stable. Input already in strictly ascending order costs one linear check.
func SortEntries(entries []Entry) []Entry {
	for i := 1; i < len(entries); i++ {
		if entries[i].X <= entries[i-1].X {
			slices.SortStableFunc(entries, func(a, b Entry) int { return cmp.Compare(a.X, b.X) })
			out := entries[:0]
			for j, e := range entries {
				if j+1 < len(entries) && entries[j+1].X == e.X {
					continue // a later duplicate wins
				}
				out = append(out, e)
			}
			return out
		}
	}
	return entries
}

// ValidateSorted checks that (n, entries) is a canonical histogram a
// distribution can be built from: n in [1, bitstr.MaxBits], at least one
// entry, outcomes strictly ascending and within n bits, masses non-negative,
// and positive total mass. The total is summed in ascending outcome order,
// exactly as FromSorted accumulates it, so the two agree on every input.
func ValidateSorted(n int, entries []Entry) error {
	if n < 1 || n > bitstr.MaxBits {
		return fmt.Errorf("key length %d out of range [1,%d]", n, bitstr.MaxBits)
	}
	if len(entries) == 0 {
		return fmt.Errorf("empty histogram")
	}
	mask := bitstr.AllOnes(n)
	var total float64
	for i, e := range entries {
		if e.X&^mask != 0 {
			return fmt.Errorf("outcome %b exceeds %d bits", e.X, n)
		}
		if i > 0 && e.X <= entries[i-1].X {
			return fmt.Errorf("outcomes not in strictly ascending order at entry %d", i)
		}
		if e.P < 0 {
			return fmt.Errorf("negative mass %v for %q", e.P, bitstr.Format(e.X, n))
		}
		total += e.P
	}
	if total <= 0 {
		return fmt.Errorf("histogram has no mass")
	}
	return nil
}

// FromSorted builds the normalized sparse distribution of a canonical
// histogram (see ValidateSorted for what is checked). Mass accumulates in
// ascending outcome order, so the normalization total — and therefore every
// output bit — depends only on the histogram's contents. The entries are
// already the sorted support, so the distribution starts with its key cache
// built.
func FromSorted(n int, entries []Entry) (*Dist, error) {
	if err := ValidateSorted(n, entries); err != nil {
		return nil, err
	}
	d := &Dist{n: n, p: make(map[bitstr.Bits]float64, len(entries)), keys: make([]bitstr.Bits, len(entries))}
	for i, e := range entries {
		d.p[e.X] += e.P
		d.total += e.P
		d.keys[i] = e.X
	}
	d.Normalize()
	return d, nil
}

// FromHistogram parses a string-keyed probability (or count) histogram — the
// wire form quantum backends and the HTTP API exchange — into a normalized
// sparse distribution, returning the outcome width alongside. All keys must
// share one length; masses must be non-negative with positive total. Error
// text carries no package prefix so facades can attach their own. It is
// Canonical followed by FromSorted, so its output is bit-identical to
// building the same histogram from its canonical form.
func FromHistogram(histogram map[string]float64) (*Dist, int, error) {
	n, entries, err := Canonical(histogram)
	if err != nil {
		return nil, 0, err
	}
	d, err := FromSorted(n, entries)
	if err != nil {
		return nil, 0, err
	}
	return d, n, nil
}

// ToHistogram formats a sparse distribution back into the string-keyed wire
// form, most significant qubit first.
func ToHistogram(d *Dist) map[string]float64 {
	out := make(map[string]float64, d.Len())
	n := d.NumBits()
	d.Range(func(x bitstr.Bits, p float64) {
		out[bitstr.Format(x, n)] = p
	})
	return out
}
