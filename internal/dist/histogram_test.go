package dist

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitstr"
)

// TestSortEntriesLastWins: arrival-order entries sort by outcome, and a
// repeated outcome keeps the value listed last, at several widths.
func TestSortEntriesLastWins(t *testing.T) {
	for _, bits := range []int{1, 7, 8, 9, 16, 33, 64} {
		rng := rand.New(rand.NewSource(int64(bits)))
		want := map[bitstr.Bits]float64{}
		var entries []Entry
		for i := 0; i < 500; i++ {
			x := bitstr.Bits(rng.Uint64()) & bitstr.AllOnes(bits)
			if i%3 == 0 && len(entries) > 0 {
				x = entries[rng.Intn(len(entries))].X // a duplicate
			}
			entries = append(entries, Entry{x, float64(i)})
			want[x] = float64(i)
		}
		got := SortEntries(entries)
		if len(got) != len(want) {
			t.Fatalf("%d bits: %d entries, want %d distinct", bits, len(got), len(want))
		}
		for i, e := range got {
			if i > 0 && e.X <= got[i-1].X {
				t.Fatalf("%d bits: not strictly ascending at %d", bits, i)
			}
			if e.P != want[e.X] {
				t.Fatalf("%d bits: outcome %b kept %v, want the last value %v", bits, e.X, e.P, want[e.X])
			}
		}
	}
	sorted := []Entry{{1, 1}, {2, 2}, {5, 3}}
	if got := SortEntries(slices.Clone(sorted)); !slices.Equal(got, sorted) {
		t.Fatalf("ascending input changed: %v", got)
	}
}

// TestFromSortedMatchesFromHistogram: the map path and the canonical path
// both build what adding the entries to a fresh Dist in ascending outcome
// order and normalizing builds, bit for bit, including a -0 mass.
func TestFromSortedMatchesFromHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := map[string]float64{"0000000000": math.Copysign(0, -1)}
	for len(h) < 700 {
		h[bitstr.Format(bitstr.Bits(rng.Intn(1<<10)), 10)] = rng.Float64() * 1e3
	}
	var entries []Entry
	for k, v := range h {
		entries = append(entries, Entry{bitstr.MustParse(k), v})
	}
	entries = SortEntries(entries)
	want := New(10)
	for _, e := range entries {
		want.Add(e.X, e.P)
	}
	want.Normalize()
	fromSorted, err := FromSorted(10, entries)
	if err != nil {
		t.Fatal(err)
	}
	fromMap, _, err := FromHistogram(h)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Dist{"FromSorted": fromSorted, "FromHistogram": fromMap} {
		if math.Float64bits(got.Total()) != math.Float64bits(want.Total()) || got.Len() != want.Len() {
			t.Fatalf("%s: total/len %v/%d, want %v/%d", name, got.Total(), got.Len(), want.Total(), want.Len())
		}
		want.Range(func(x bitstr.Bits, p float64) {
			if math.Float64bits(got.Prob(x)) != math.Float64bits(p) {
				t.Fatalf("%s: outcome %b: %v, want %v", name, x, got.Prob(x), p)
			}
		})
		if !slices.Equal(got.Outcomes(), want.Outcomes()) {
			t.Fatalf("%s: sorted support differs", name)
		}
	}
}

// TestValidateSorted rejects every way a canonical histogram can be broken.
func TestValidateSorted(t *testing.T) {
	if err := ValidateSorted(2, []Entry{{0b01, 1}, {0b10, 0}}); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		n       int
		entries []Entry
	}{
		"width 0":       {0, []Entry{{0, 1}}},
		"width 65":      {65, []Entry{{0, 1}}},
		"empty":         {2, nil},
		"too wide":      {2, []Entry{{0b100, 1}}},
		"unsorted":      {2, []Entry{{0b10, 1}, {0b01, 1}}},
		"duplicate":     {2, []Entry{{0b01, 1}, {0b01, 1}}},
		"negative mass": {2, []Entry{{0b01, 2}, {0b10, -1}}},
		"no mass":       {2, []Entry{{0b01, 0}, {0b10, 0}}},
	} {
		if err := ValidateSorted(c.n, c.entries); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := FromSorted(c.n, c.entries); err == nil {
			t.Errorf("%s: FromSorted accepted", name)
		}
	}
}
