package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
)

// DefaultEntries is the serving layer's default cache capacity. The LRU
// bounds entries, not bytes, so the owner must bound the per-entry size
// itself (the HTTP layer refuses to store response bodies over 1 MiB):
// typical QAOA-sized responses (a few thousand outcomes) are tens to a
// couple hundred KiB, so 1024 entries is tens to a few hundred MiB in
// practice and entries × per-entry-cap worst case — sized for one host.
const DefaultEntries = 1024

// KeyVersion stamps every key's hash input. Bump it whenever the bytes a key
// stands for change — the key derivation, the response rendering, or the
// L2/peer entry framing — so an entry written by an older build (on disk in
// a Dir, or held by a peer running it) is a miss rather than stale bytes
// served as a hit. Version 1 was the unstamped string-keyed derivation.
const KeyVersion = 2

// KeySorted returns the canonical cache key of one reconstruction request
// given its canonical histogram (n-bit outcomes in strictly ascending order;
// see dist.SortEntries): a SHA-256 over the key version, the width, every
// entry's outcome and exact float64 value bits, and every result-affecting
// option. opts.Workers is excluded — parallelism never changes the output —
// and an empty Engine hashes as "auto", its documented meaning, so the two
// spellings share cache entries.
func KeySorted(n int, entries []dist.Entry, opts core.Options) string {
	h := sha256.New()
	var buf [4096]byte
	b := append(buf[:0], keyDomainSorted...)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(entries)))
	for _, e := range entries {
		if len(b) > len(buf)-16 {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, e.X)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.P))
	}
	h.Write(b)
	return finishKey(h, opts)
}

// Key is KeySorted for the string-keyed map form: a histogram dist.Canonical
// accepts hashes exactly as its canonical form does, so both spellings of
// one request share a key. Key is total: a map that is not a histogram
// (malformed or mixed-width keys) hashes its sorted, length-prefixed string
// keys under a separate domain tag instead, which keeps the derivation
// injective — a crafted invalid key can never collide with a valid entry.
func Key(histogram map[string]float64, opts core.Options) string {
	if n, entries, err := dist.Canonical(histogram); err == nil {
		return KeySorted(n, entries, opts)
	}
	h := sha256.New()
	h.Write([]byte(keyDomainStrings))
	keys := make([]string, 0, len(histogram))
	for k := range histogram {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(k)))
		h.Write(buf[:])
		h.Write([]byte(k))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(histogram[k]))
		h.Write(buf[:])
	}
	return finishKey(h, opts)
}

// The two key domains: both carry the version stamp, and the differing tag
// byte keeps a canonical histogram's serialization from ever equalling a
// string-keyed one.
var (
	keyDomainSorted  = fmt.Sprintf("hammer-cache-key/v%d/h", KeyVersion)
	keyDomainStrings = fmt.Sprintf("hammer-cache-key/v%d/s", KeyVersion)
)

// finishKey appends the result-affecting options and returns the hex digest.
func finishKey(h hash.Hash, opts core.Options) string {
	engine := opts.Engine
	if engine == "" {
		engine = core.EngineAuto
	}
	fmt.Fprintf(h, "|r=%d|w=%d|f=%t|m=%d|e=%s",
		opts.Radius, opts.Weights, opts.DisableFilter, opts.TopM, engine)
	return hex.EncodeToString(h.Sum(nil))
}

// entry is one cached key/value pair, stored as the list element's payload.
type entry[V any] struct {
	key string
	val V
}

// LRU is a mutex-guarded fixed-capacity least-recently-used map from string
// keys to values. A nil *LRU is the disabled cache: every method is safe and
// Get always misses. See the package documentation for the full contract.
type LRU[V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// New returns an LRU holding at most capacity entries. A non-positive
// capacity returns nil — the disabled cache.
func New[V any](capacity int) *LRU[V] {
	if capacity <= 0 {
		return nil
	}
	return &LRU[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// Get returns the value cached under key and refreshes its recency. The
// second result reports whether the key was present; every lookup counts as
// a hit or a miss (except on a nil LRU, which misses without counting).
func (c *LRU[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(e)
	return e.Value.(*entry[V]).val, true
}

// Put stores val under key as the most recently used entry, evicting the
// least recently used entry if the cache is full. Storing an existing key
// replaces its value (no eviction). No-op on a nil LRU.
func (c *LRU[V]) Put(key string, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.Value.(*entry[V]).val = val
		c.ll.MoveToFront(e)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		c.evictions++
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
}

// Len returns the current number of cached entries (0 on a nil LRU).
func (c *LRU[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Capacity returns the configured maximum entry count (0 on a nil LRU).
func (c *LRU[V]) Capacity() int {
	if c == nil {
		return 0
	}
	return c.capacity
}

// Hits returns the monotonic hit count (0 on a nil LRU).
func (c *LRU[V]) Hits() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns the monotonic miss count (0 on a nil LRU).
func (c *LRU[V]) Misses() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// Evictions returns the monotonic eviction count (0 on a nil LRU).
func (c *LRU[V]) Evictions() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
