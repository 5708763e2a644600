// Package cache is the serving layer's result cache: a mutex-guarded,
// fixed-capacity LRU keyed by a canonical hash of (histogram, options), so a
// repeated identical reconstruction request — the QAOA-optimizer pattern of
// re-evaluating near-identical landscapes — is served from memory without
// touching the scheduler or an engine.
//
// Contract:
//
//   - Keys. KeySorted(n, entries, opts) is a canonical SHA-256 over a
//     histogram's canonical form (dist.SortEntries: outcomes ascending,
//     exact float64 bit patterns), so every spelling of one histogram — key
//     order, whitespace, escapes, the wrapped form — produces one key. Key
//     is the same key for the map form. The hash input starts with
//     KeyVersion, so entries a differently versioned build wrote are
//     misses. Every result-affecting option field (radius,
//     weight scheme, filter, TopM, engine — with "" normalized to "auto")
//     participates; Workers deliberately does not, because parallelism never
//     changes a reconstruction's output.
//   - Values. The LRU stores values by assignment. Callers must only cache
//     immutable (never-mutated-after-Put) values: a Get returns the stored
//     value itself, shared with every other hit.
//   - Concurrency. All methods are safe for concurrent use; Get and Put take
//     one short mutex over map + intrusive-list pointer updates, never over
//     reconstruction work. Two racing misses on one key both reconstruct and
//     both Put — idempotent by the key's construction.
//   - Eviction and stats. Put beyond capacity evicts the least recently
//     used entry (Get refreshes recency). Hits, Misses, and Evictions are
//     monotonic counters readable at any time (they feed the /metrics
//     endpoint as counters); Len is the current entry count.
//   - Nil safety. A nil *LRU — the "caching disabled" configuration — is
//     fully usable: Get always misses without counting, Put is a no-op, and
//     the accessors return zero.
//
// Tiering: Backend is the store contract the LRU (instantiated at []byte),
// the file-backed Dir, and the network Peers probe all satisfy. The serving
// layer runs them as L1, L2, and L3: a request checks the in-memory LRU
// first, then the directory store (which survives restarts), then — because
// the canonical keys are replica-portable — its peer replicas' caches over
// HTTP, promoting any lower-tier hit back into L1/L2. Dir puts are temp-file
// + rename so a crash never leaves a torn entry; keys are restricted to the
// exact hex-SHA-256 shape Key emits (ValidKey), which is what makes them safe
// file names and URL path segments. Peers is strictly best-effort: every
// failure class degrades to a miss, and a peer that keeps failing is skipped
// for a cooldown window rather than probed on every request. A nil *Dir or
// nil *Peers is a disabled tier, mirroring the nil-LRU contract.
package cache
