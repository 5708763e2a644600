package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// incrementalVsBatch ingests the distribution's masses into an Incremental
// and compares its snapshot against the batch Reconstruct on every shared
// quantity.
func incrementalVsBatch(t *testing.T, in *dist.Dist, opts Options) {
	t.Helper()
	inc := NewIncremental(in.NumBits(), opts)
	in.Range(func(x bitstr.Bits, p float64) {
		inc.Add(x, p)
	})
	got := inc.Snapshot()
	want := Reconstruct(in, opts)
	if got.Engine != EngineIncremental {
		t.Fatalf("snapshot engine %q", got.Engine)
	}
	if got.Radius != want.Radius {
		t.Fatalf("radius %d vs %d", got.Radius, want.Radius)
	}
	if d := dist.TVD(got.Out, want.Out); d > 1e-12 {
		t.Fatalf("incremental TVD %v from batch", d)
	}
	for d := range want.GlobalCHS {
		if d == 0 {
			continue // incremental pins the self-pair term to exactly 1
		}
		if !almostEq(got.GlobalCHS[d], want.GlobalCHS[d], 1e-9) {
			t.Fatalf("CHS[%d] %v vs %v", d, got.GlobalCHS[d], want.GlobalCHS[d])
		}
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	for n := 4; n <= 14; n += 2 {
		incrementalVsBatch(t, goldenDist(n, int64(n)), Options{})
	}
}

func TestIncrementalMatchesBatchAcrossOptions(t *testing.T) {
	in := goldenDist(10, 21)
	for _, opts := range []Options{
		{Radius: 1},
		{Radius: 10},
		{Weights: UniformWeight},
		{Weights: ExpDecay, Radius: 4},
		{DisableFilter: true},
		{Workers: 1},
		{Workers: 7},
	} {
		incrementalVsBatch(t, in, opts)
	}
}

// TestIncrementalInterleavedSnapshots is the core-level invalidation test: a
// snapshot taken after every batch of updates must equal a fresh batch
// reconstruction of the histogram accumulated so far — i.e. reusing clean
// rows across snapshots never changes the result.
func TestIncrementalInterleavedSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 10
	inc := NewIncremental(n, Options{})
	acc := dist.New(n)
	key := bitstr.Bits(rng.Intn(1 << n))
	for round := 0; round < 12; round++ {
		batch := 1 + rng.Intn(40)
		for i := 0; i < batch; i++ {
			// Shots cluster around the key like real noisy output.
			x := key
			flips := rng.Intn(4)
			for f := 0; f < flips; f++ {
				x = bitstr.Flip(x, rng.Intn(n))
			}
			inc.Add(x, 1)
			acc.Add(x, 1)
		}
		got := inc.Snapshot()
		want := Reconstruct(acc.Clone().Normalize(), Options{})
		if d := dist.TVD(got.Out, want.Out); d > 1e-12 {
			t.Fatalf("round %d (%d outcomes): TVD %v", round, acc.Len(), d)
		}
		if a, b := got.Out.MostProbable(), want.Out.MostProbable(); a != b {
			t.Fatalf("round %d: top-1 %b vs %b", round, a, b)
		}
	}
}

// TestIncrementalFullResyncBoundary: crossing the periodic anti-drift
// rebuild must not change results — the delta-patched rows and the freshly
// rebuilt rows describe the same histogram.
func TestIncrementalFullResyncBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 8
	inc := NewIncremental(n, Options{})
	acc := dist.New(n)
	inc.resyncIn = 3 // force the boundary within a short test
	for round := 0; round < 8; round++ {
		for i := 0; i < 10; i++ {
			x := bitstr.Bits(rng.Intn(1 << n))
			inc.Add(x, 1)
			acc.Add(x, 1)
		}
		got := inc.Snapshot()
		want := Reconstruct(acc.Clone().Normalize(), Options{})
		if d := dist.TVD(got.Out, want.Out); d > 1e-12 {
			t.Fatalf("round %d (resyncIn now %d): TVD %v", round, inc.resyncIn, d)
		}
	}
}

// TestIncrementalSnapshotCached: repeated snapshots with no intervening Add
// return the identical Result, and ingestion invalidates the cache.
func TestIncrementalSnapshotCached(t *testing.T) {
	inc := NewIncremental(4, Options{})
	inc.Add(0b1111, 10)
	inc.Add(0b1110, 3)
	first := inc.Snapshot()
	if second := inc.Snapshot(); second != first {
		t.Error("snapshot not cached across no-op interval")
	}
	inc.Add(0b0111, 2)
	if third := inc.Snapshot(); third == first {
		t.Error("snapshot cache not invalidated by Add")
	}
}

func TestIncrementalAccessors(t *testing.T) {
	inc := NewIncremental(6, Options{Radius: 2})
	if inc.NumBits() != 6 || inc.Radius() != 2 {
		t.Errorf("n=%d radius=%d", inc.NumBits(), inc.Radius())
	}
	inc.Add(0b000111, 4)
	inc.Add(0b000111, 1)
	inc.Add(0b111000, 5)
	if inc.Support() != 2 || inc.Total() != 10 {
		t.Errorf("support=%d total=%v", inc.Support(), inc.Total())
	}
}

func TestIncrementalPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"width 0":        func() { NewIncremental(0, Options{}) },
		"topm":           func() { NewIncremental(4, Options{TopM: 8}) },
		"batch engine":   func() { NewIncremental(4, Options{Engine: EngineExact}) },
		"empty snapshot": func() { NewIncremental(4, Options{}).Snapshot() },
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

// TestIncrementalSingleOutcome: the degenerate one-outcome stream must
// reconstruct to certainty, not panic on an empty neighborhood.
func TestIncrementalSingleOutcome(t *testing.T) {
	inc := NewIncremental(5, Options{})
	inc.Add(0b10101, 7)
	res := inc.Snapshot()
	if p := res.Out.Prob(0b10101); !almostEq(p, 1, 1e-15) {
		t.Errorf("prob %v", p)
	}
}

// saturatedStream returns a 10-bit incremental state whose support already
// covers all 1024 outcomes, with its first (full) snapshot taken.
func saturatedStream(opts Options) *Incremental {
	const n = 10
	rng := rand.New(rand.NewSource(4))
	inc := NewIncremental(n, opts)
	for x := 0; x < 1<<n; x++ {
		inc.Add(bitstr.Bits(x), float64(1+rng.Intn(50)))
	}
	inc.Snapshot()
	return inc
}

// TestIncrementalRepairAllocs is the allocation gate on the repair pass: an
// Add batch plus Snapshot must allocate the same number of objects whether
// the batch changed 8 outcomes or 400, i.e. the repair allocates nothing
// per changed row. What a snapshot does allocate (the output distribution,
// CHS and weights) depends only on the support size, which is saturated.
func TestIncrementalRepairAllocs(t *testing.T) {
	for _, opts := range []Options{{}, {DisableFilter: true}} {
		inc := saturatedStream(opts)
		inc.resyncIn = 1 << 30 // keep the periodic full rebuild out of the measurement
		allocs := func(changed int) float64 {
			return testing.AllocsPerRun(20, func() {
				for j := 0; j < 512; j++ {
					inc.Add(bitstr.Bits((j%changed)*1021%1024), 1)
				}
				inc.Snapshot()
			})
		}
		few, many := allocs(8), allocs(400)
		if few != many {
			t.Errorf("opts %+v: %v allocs/op with 8 changed outcomes, %v with 400", opts, few, many)
		}
	}
}

// BenchmarkIncrementalSnapshot pins the stream engine's perf claims at the
// core level. "incremental" and "batch": after a small batch lands on a
// 20-bit / 2000-outcome accumulated stream, the incremental snapshot must be
// measurably cheaper than a full batch reconstruction of the same histogram
// (the root BenchmarkStreamSnapshot measures the same through the public
// facade). "dense" is the shape of a live 10-qubit session: the support
// saturates all 1024 outcomes and each 512-shot batch changes ~40% of them,
// so the repair pass itself dominates.
func BenchmarkIncrementalSnapshot(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n, support, batch = 20, 2000, 64
	build := func() (*Incremental, []bitstr.Bits) {
		inc := NewIncremental(n, Options{})
		outs := make([]bitstr.Bits, 0, support)
		key := bitstr.Bits(rng.Int63()) & bitstr.AllOnes(n)
		for len(outs) < support {
			x := key
			for f := rng.Intn(6); f > 0; f-- {
				x = bitstr.Flip(x, rng.Intn(n))
			}
			if inc.ix.Mass(x) == 0 {
				outs = append(outs, x)
			}
			inc.Add(x, float64(1+rng.Intn(100)))
		}
		return inc, outs
	}
	inc, outs := build()
	inc.Snapshot() // settle the initial full pass

	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				inc.Add(outs[(i*batch+j)%len(outs)], 1)
			}
			inc.Snapshot()
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				inc.Add(outs[(i*batch+j)%len(outs)], 1)
			}
			Reconstruct(inc.ix.Dist(), Options{})
		}
	})
	b.Run("dense", func(b *testing.B) {
		const dn = 10
		dense := saturatedStream(Options{})
		key := bitstr.Bits(rng.Intn(1 << dn))
		batches := make([][]bitstr.Bits, 16)
		for i := range batches {
			batches[i] = liveShotsBatch(rng, key, dn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, x := range batches[i%len(batches)] {
				dense.Add(x, 1)
			}
			dense.Snapshot()
		}
	})
}
