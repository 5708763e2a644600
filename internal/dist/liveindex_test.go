package dist

import (
	"math/rand"
	"testing"

	"repro/internal/bitstr"
)

func TestLiveIndexAddAndMass(t *testing.T) {
	ix := NewLiveIndex(4)
	if _, isNew := ix.Add(0b1010, 3); !isNew {
		t.Error("first Add not reported new")
	}
	if _, isNew := ix.Add(0b1010, 2); isNew {
		t.Error("second Add reported new")
	}
	ix.Add(0b0001, 1)
	if got := ix.Mass(0b1010); got != 5 {
		t.Errorf("mass = %v", got)
	}
	if got := ix.Mass(0b1111); got != 0 {
		t.Errorf("absent mass = %v", got)
	}
	if ix.Len() != 2 || ix.Total() != 6 {
		t.Errorf("len=%d total=%v", ix.Len(), ix.Total())
	}
	if !ix.Contains(0b0001) || ix.Contains(0b0100) {
		t.Error("Contains wrong")
	}
	if got := len(ix.Bucket(2)); got != 1 {
		t.Errorf("bucket(2) size %d", got)
	}
	if ix.Bucket(-1) != nil || ix.Bucket(5) != nil {
		t.Error("out-of-range bucket not nil")
	}
}

func TestLiveIndexZeroMassStaysInSupport(t *testing.T) {
	ix := NewLiveIndex(3)
	ix.Add(0b101, 0)
	if ix.Len() != 1 || !ix.Contains(0b101) {
		t.Error("zero-mass outcome dropped")
	}
}

func TestLiveIndexPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"width 0":       func() { NewLiveIndex(0) },
		"width 65":      func() { NewLiveIndex(65) },
		"overflow":      func() { NewLiveIndex(3).Add(0b1000, 1) },
		"negative mass": func() { NewLiveIndex(3).Add(0b001, -1) },
		"empty dist":    func() { _ = NewLiveIndex(3).Dist() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestLiveIndexMatchesIndex: for any ingest sequence, the live index's ball
// queries must find exactly the same (outcome, mass, distance) set as the
// batch Index built from the same accumulated histogram, minus the query
// outcome itself, in ascending weight order.
func TestLiveIndexMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 8
	ix := NewLiveIndex(n)
	d := New(n)
	for i := 0; i < 500; i++ {
		x := bitstr.Bits(rng.Intn(1 << n))
		m := float64(1 + rng.Intn(5))
		ix.Add(x, m)
		d.Add(x, m)
	}
	if ix.Len() != d.Len() {
		t.Fatalf("support %d vs %d", ix.Len(), d.Len())
	}
	batch := NewIndex(d)
	buf := make([]Neighbor, ix.Len())
	xs, ms := ix.Outcomes(), ix.Masses()
	for _, maxD := range []int{0, 1, 3, n} {
		for trial := 0; trial < 20; trial++ {
			x := bitstr.Bits(rng.Intn(1 << n))
			live := map[bitstr.Bits]float64{}
			lastW := 0
			for _, nb := range ix.Ball(x, maxD, buf) {
				y := xs[nb.Slot]
				if dd := bitstr.Distance(x, y); dd != int(nb.D) {
					t.Fatalf("wrong distance %d for %b vs %b", nb.D, x, y)
				}
				if w := bitstr.Weight(y); w < lastW {
					t.Fatalf("ball not in ascending weight order at %b", y)
				} else {
					lastW = w
				}
				live[y] = ms[nb.Slot]
			}
			want := map[bitstr.Bits]float64{}
			batch.RangeBall(x, maxD, func(e IndexEntry, dd int) {
				if dd > 0 {
					want[e.X] = e.P
				}
			})
			if len(live) != len(want) {
				t.Fatalf("maxD=%d x=%b: ball size %d vs %d", maxD, x, len(live), len(want))
			}
			for y, m := range want {
				if live[y] != m {
					t.Fatalf("maxD=%d: mass mismatch on %b: %v vs %v", maxD, y, live[y], m)
				}
			}
		}
	}
}

// TestLiveIndexDist: the normalized conversion must match Dist built from
// the same masses.
func TestLiveIndexDist(t *testing.T) {
	ix := NewLiveIndex(3)
	ref := New(3)
	for _, e := range []struct {
		x bitstr.Bits
		m float64
	}{{0b001, 3}, {0b111, 5}, {0b001, 1}, {0b100, 2}} {
		ix.Add(e.x, e.m)
		ref.Add(e.x, e.m)
	}
	ref.Normalize()
	got := ix.Dist()
	if got.Total() != 1 {
		t.Errorf("total %v", got.Total())
	}
	if tvd := TVD(got, ref); tvd > 1e-15 {
		t.Errorf("TVD %v", tvd)
	}
}

// TestLiveIndexRangeDeterministic: iteration walks buckets in ascending
// weight and insertion order within a bucket.
func TestLiveIndexRangeDeterministic(t *testing.T) {
	ix := NewLiveIndex(4)
	ix.Add(0b1110, 1) // w=3
	ix.Add(0b0001, 1) // w=1, first in bucket
	ix.Add(0b1000, 1) // w=1, second in bucket
	ix.Add(0b0000, 1) // w=0
	var got []bitstr.Bits
	ix.Range(func(x bitstr.Bits, _ float64) { got = append(got, x) })
	want := []bitstr.Bits{0b0000, 0b0001, 0b1000, 0b1110}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestLiveIndexSlots: slots are dense and assigned in first-sight order,
// never move, and address the outcome and mass slices; a bucket lists its
// slots in insertion order.
func TestLiveIndexSlots(t *testing.T) {
	ix := NewLiveIndex(4)
	for i, c := range []struct {
		x     bitstr.Bits
		m     float64
		slot  int32
		isNew bool
	}{
		{0b0011, 2, 0, true},
		{0b1000, 1, 1, true},
		{0b0011, 3, 0, false},
		{0b0101, 4, 2, true},
	} {
		slot, isNew := ix.Add(c.x, c.m)
		if slot != c.slot || isNew != c.isNew {
			t.Fatalf("add %d: slot %d new %v, want %d %v", i, slot, isNew, c.slot, c.isNew)
		}
	}
	xs, ms := ix.Outcomes(), ix.Masses()
	if len(xs) != 3 || xs[0] != 0b0011 || xs[2] != 0b0101 || ms[0] != 5 || ms[1] != 1 {
		t.Fatalf("outcomes %v masses %v", xs, ms)
	}
	if b := ix.Bucket(2); len(b) != 2 || b[0] != 0 || b[1] != 2 {
		t.Fatalf("bucket(2) = %v, want [0 2]", b)
	}
}
