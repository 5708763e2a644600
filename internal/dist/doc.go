// Package dist is the distribution layer of the HAMMER reproduction: the
// sparse and dense probability-histogram types every other layer builds on,
// plus the popcount-bucketed index (index.go) that accelerates the
// Hamming-distance queries of the reconstruction engines.
//
// Three representations cover the pipeline end to end:
//
//   - Vector — a dense probability array over all 2^n outcomes, the natural
//     output of the statevector and density-matrix simulators and the form
//     the distribution-level noise channels operate on.
//   - Dist — a sparse bitstring→probability store with deterministic
//     (ascending-outcome) iteration, the form HAMMER and every analysis
//     package consume. Measured histograms are sparse: even 256K trials on a
//     20-qubit program touch a vanishing fraction of the 2^20 outcomes.
//   - Counts — sparse integer shot counts, the raw form finite-shot
//     sampling produces.
//
// On top of those sit the two index structures the engines query:
//
//   - Index — the immutable popcount-bucketed view of a Dist: outcomes
//     grouped by Hamming weight, each bucket ordered by descending
//     probability. |popcount(x)−popcount(y)| ≤ d(x,y), so a radius-d ball
//     query inspects only the 2d+1 buckets around the query's weight.
//   - LiveIndex — the mutable counterpart for streaming ingestion: no
//     global rank order, so adding or incrementing an outcome is O(1) while
//     the same triangle-inequality ball queries stay available. Each
//     outcome gets a dense slot on first sight, and outcomes, masses and
//     bucket members are slot-indexed arrays, so per-outcome state kept
//     alongside (core.Incremental's rows) is addressed without hashing.
//   - Packed — the bit-packed structure-of-arrays view of an Index for the
//     blocked engine's flat scans: one contiguous []uint64 of outcome words
//     in bucket-major order (ascending weight, within-bucket ascending
//     rank), with probabilities and ranks in parallel arrays and per-weight
//     bucket offsets. Because within-bucket order is ascending rank, the
//     triangular "ranks after r" suffix of any bucket is one contiguous
//     span found by a single binary search (SuffixAfter).
//
// # Contract
//
//   - Goroutine safety: no type in this package is safe for concurrent
//     mutation. Concurrent read-only access (Range, ball queries on a built
//     Index) is safe; the engines rely on exactly that in their parallel
//     scans.
//   - Determinism: all iteration orders are deterministic — Dist and Counts
//     range in ascending outcome order, Index buckets in (descending
//     probability, ascending outcome) order — so every experiment in the
//     repository reproduces bit-for-bit from its seed. Histograms enter
//     through one canonical form — width plus entries in ascending outcome
//     order (Canonical, SortEntries) — and FromSorted accumulates mass in
//     that order for the same reason.
//   - Reuse: Dist.Reset, Index.Reset, and Packed.Reset rebuild in place
//     without shedding capacity; the request-oriented core's 0 allocs/op
//     after warm-up depends on these paths not allocating for same-shape
//     problems.
package dist
