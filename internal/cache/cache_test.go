package cache

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

func TestKeyMapOrderIndependent(t *testing.T) {
	// Build equal maps via different insertion orders; Go additionally
	// randomizes iteration, so repeated Key calls exercise differing orders.
	a := map[string]float64{}
	b := map[string]float64{}
	outs := []string{"0000", "0001", "0011", "0111", "1111", "1010", "0101"}
	for i := 0; i < len(outs); i++ {
		a[outs[i]] = float64(i + 1)
		b[outs[len(outs)-1-i]] = float64(len(outs) - i)
	}
	want := Key(a, core.Options{})
	for i := 0; i < 20; i++ {
		if got := Key(b, core.Options{}); got != want {
			t.Fatalf("key differs across equal maps: %s vs %s", got, want)
		}
	}
}

func TestKeySensitivity(t *testing.T) {
	h := map[string]float64{"01": 1, "10": 2}
	base := Key(h, core.Options{})
	distinct := map[string]string{
		"different value":   Key(map[string]float64{"01": 1, "10": 2.0000000001}, core.Options{}),
		"different outcome": Key(map[string]float64{"01": 1, "11": 2}, core.Options{}),
		"extra outcome":     Key(map[string]float64{"01": 1, "10": 2, "00": 0}, core.Options{}),
		"radius":            Key(h, core.Options{Radius: 1}),
		"weights":           Key(h, core.Options{Weights: core.UniformWeight}),
		"filter":            Key(h, core.Options{DisableFilter: true}),
		"topm":              Key(h, core.Options{TopM: 4}),
		"engine":            Key(h, core.Options{Engine: core.EngineExact}),
	}
	for name, k := range distinct {
		if k == base {
			t.Errorf("%s: key collided with base", name)
		}
	}
	// Workers must NOT participate: parallelism never changes results.
	if Key(h, core.Options{Workers: 8}) != base {
		t.Error("Workers changed the key")
	}
	// Injectivity for arbitrary (not-yet-validated) keys: a single crafted
	// key embedding another entry's serialization — separator bytes, float
	// bits and all — must not collide with the honest two-entry histogram.
	// Keys are hashed before wire validation, so this is security-relevant.
	// Under a separator-based encoding this exact key — "01", a fake
	// separator, float64(1)'s bits, then "10" — serialized identically to
	// the honest histogram.
	embedded := "01" + "\x00" + string([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}) + "10"
	if Key(map[string]float64{embedded: 2}, core.Options{}) == base {
		t.Error("crafted embedded key collided with a valid histogram")
	}
	// "" and "auto" are the same engine.
	if Key(h, core.Options{Engine: core.EngineAuto}) != base {
		t.Error(`Engine "auto" keyed differently from ""`)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU after a was refreshed)")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a = %d, %t", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Errorf("c = %d, %t", v, ok)
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Errorf("len %d evictions %d", c.Len(), c.Evictions())
	}
	// Replacing an existing key neither grows nor evicts.
	c.Put("c", 30)
	if v, _ := c.Get("c"); v != 30 || c.Len() != 2 || c.Evictions() != 1 {
		t.Errorf("replace: c=%d len=%d evictions=%d", v, c.Len(), c.Evictions())
	}
}

func TestLRUStats(t *testing.T) {
	c := New[string](4)
	c.Get("absent")
	c.Put("k", "v")
	c.Get("k")
	c.Get("k")
	c.Get("also-absent")
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits %d misses %d", c.Hits(), c.Misses())
	}
	if c.Capacity() != 4 {
		t.Errorf("capacity %d", c.Capacity())
	}
}

func TestNilLRUDisabled(t *testing.T) {
	c := New[int](0)
	if c != nil {
		t.Fatal("non-positive capacity should return nil")
	}
	c.Put("k", 1)
	if v, ok := c.Get("k"); ok || v != 0 {
		t.Error("nil cache returned a hit")
	}
	if c.Len() != 0 || c.Capacity() != 0 || c.Hits() != 0 || c.Misses() != 0 || c.Evictions() != 0 {
		t.Error("nil cache reported nonzero stats")
	}
}

// Concurrent Get/Put/stat reads across overlapping keys: correctness under
// -race, plus the conservation law hits+misses == lookups.
func TestLRUConcurrent(t *testing.T) {
	c := New[int](16)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j",
		"k", "l", "m", "n", "o", "p", "q", "r", "s", "t"}
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := keys[(i+w)%len(keys)]
				if v, ok := c.Get(k); ok && v < 0 {
					t.Error("impossible cached value")
				}
				c.Put(k, i)
				c.Len()
				c.Evictions()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Hits() + c.Misses(); got != 8*perWorker {
		t.Errorf("hits+misses = %d, want %d", got, 8*perWorker)
	}
	if c.Len() > 16 {
		t.Errorf("len %d exceeds capacity", c.Len())
	}
}

// TestKeyMatchesKeySorted: the map form and the canonical form of one
// histogram share a key, and a map that is not a histogram keys apart from
// every histogram.
func TestKeyMatchesKeySorted(t *testing.T) {
	h := map[string]float64{"110": 3, "001": 1, "011": 0}
	entries := []dist.Entry{{X: 0b001, P: 1}, {X: 0b011, P: 0}, {X: 0b110, P: 3}}
	for _, opts := range []core.Options{{}, {Radius: 1, Engine: core.EngineExact}} {
		if Key(h, opts) != KeySorted(3, entries, opts) {
			t.Errorf("opts %+v: map and canonical keys differ", opts)
		}
	}
	if KeySorted(3, entries, core.Options{}) == KeySorted(4, entries, core.Options{}) {
		t.Error("width does not key")
	}
	if !ValidKey(Key(map[string]float64{"0x": 1}, core.Options{})) {
		t.Error("invalid histogram did not get a well-formed key")
	}
	if Key(map[string]float64{"01": 1, "001": 1}, core.Options{}) == Key(map[string]float64{"01": 1}, core.Options{}) {
		t.Error("mixed-width map collided with a histogram")
	}
}
