package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	hammer "repro"
	"repro/internal/bitstr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/serve"
)

// benchHistogramJSON builds one §6.6-shaped workload histogram (Hamming
// cluster plus uniform tail) as a wire body.
func benchHistogramJSON(b *testing.B, bits, support int) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	d := dist.New(bits)
	key := bitstr.Bits(rng.Int63()) & bitstr.AllOnes(bits)
	d.Set(key, 0.05)
	for i := 0; i < bits && d.Len() < support; i++ {
		d.Set(bitstr.Flip(key, i), 0.01+0.01*rng.Float64())
	}
	for d.Len() < support {
		d.Set(bitstr.Bits(rng.Int63())&bitstr.AllOnes(bits), 1e-4*(1+rng.Float64()))
	}
	d.Normalize()
	h := make(map[string]float64, d.Len())
	d.Range(func(x bitstr.Bits, p float64) { h[bitstr.Format(x, bits)] = p })
	body, err := json.Marshal(h)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// benchReconstruct drives POST /v1/reconstruct through the full handler
// stack (middleware, decode, cache, JSON encode) with the recorder as the
// wire.
func benchReconstruct(b *testing.B, cacheEntries int, wantHeader string) {
	b.Helper()
	srv, err := newServerWith(hammer.Config{}, 1, serve.Config{}, cacheEntries)
	if err != nil {
		b.Fatal(err)
	}
	mux := srv.mux()
	body := benchHistogramJSON(b, 20, 4000)
	do := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/reconstruct", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}
	if rec := do(); rec.Code != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", rec.Code, rec.Body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := do()
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
		if got := rec.Header().Get(cacheHeader); got != wantHeader {
			b.Fatalf("%s = %q, want %q", cacheHeader, got, wantHeader)
		}
	}
}

// BenchmarkCachedReconstruct measures a served cache hit: every timed
// request is the warmed-up repeat of one identical histogram, the
// QAOA-optimizer traffic pattern. Compare against
// BenchmarkUncachedReconstruct for the hit speedup (cmd/cachebench emits the
// ratio as BENCH_cache.json; the acceptance floor is 10x).
func BenchmarkCachedReconstruct(b *testing.B) {
	benchReconstruct(b, 64, cacheHit)
}

// BenchmarkUncachedReconstruct is the same request served with caching
// disabled: a full reconstruction per timed request.
func BenchmarkUncachedReconstruct(b *testing.B) {
	benchReconstruct(b, 0, "")
}

// shotsJSON samples shots from a QAOA-like bits-qubit distribution (a
// Hamming cluster around one outcome plus a uniform tail) and returns the
// counts as a wire body with the number of distinct outcomes. The keys are
// in sorted order, as json.Marshal renders them, or shuffled.
func shotsJSON(tb testing.TB, bits, shots int, shuffled bool) ([]byte, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	peak := bitstr.Bits(rng.Int63()) & bitstr.AllOnes(bits)
	counts := map[string]int{}
	for i := 0; i < shots; i++ {
		x := bitstr.Bits(rng.Int63()) & bitstr.AllOnes(bits)
		if rng.Intn(64) == 0 {
			x = peak ^ 1<<uint(rng.Intn(bits))
		}
		counts[bitstr.Format(x, bits)]++
	}
	if !shuffled {
		body, err := json.Marshal(counts)
		if err != nil {
			tb.Fatal(err)
		}
		return body, len(counts)
	}
	members := make([]string, 0, len(counts))
	for k, v := range counts {
		members = append(members, fmt.Sprintf("%q:%d", k, v))
	}
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	return []byte("{" + strings.Join(members, ",") + "}"), len(counts)
}

// decodeKey is the per-request work of a cache hit before the lookup:
// decode the body and hash its canonical histogram.
func decodeKey(body []byte, opts core.Options) (string, error) {
	rr, err := decodeReconstruct(body)
	if err != nil {
		return "", err
	}
	return cache.KeySorted(rr.bits, rr.entries, opts), nil
}

// TestHitDecodeKeyAllocs gates the hit path's wire layers by allocation
// count, which unlike time does not depend on the host: decoding and keying
// a 16-qubit, 8192-shot histogram must stay a small constant number of
// allocations, not one or more per outcome.
func TestHitDecodeKeyAllocs(t *testing.T) {
	body, support := shotsJSON(t, 16, 8192, false)
	if support < 7000 {
		t.Fatalf("workload has %d outcomes, want a 7k+ support", support)
	}
	if _, err := decodeKey(body, core.Options{}); err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 32
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeKey(body, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("decode+key of %d outcomes: %.0f allocs, want <= %d", support, allocs, maxAllocs)
	}
}

// BenchmarkHitDecodeKey measures the same work as TestHitDecodeKeyAllocs:
// the wire decode and cache key of a 16-qubit, 8192-shot histogram, the part
// of a cache hit that scales with the histogram. "shuffled" sends the keys
// out of order, which adds the one sort.
func BenchmarkHitDecodeKey(b *testing.B) {
	for _, shuffled := range []bool{false, true} {
		name := "sorted"
		if shuffled {
			name = "shuffled"
		}
		b.Run(name, func(b *testing.B) {
			body, _ := shotsJSON(b, 16, 8192, shuffled)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := decodeKey(body, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
