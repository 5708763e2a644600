package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	hammer "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/serve"
)

// durableClock is an adjustable serve.Config.Now for TTL tests across
// "restarts" (both server generations share it).
type durableClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *durableClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *durableClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newDurableServer builds a journaled server over dc's directories and
// returns both the server (for Close — the "process exit") and its test
// listener.
func newDurableServer(t *testing.T, sc serve.Config, dc durableConfig) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServerFull(hammer.Config{}, 2, "", sc, cache.DefaultEntries, dc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postHeaders is postJSON plus the response headers (the cache tier checks).
func postHeaders(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header
}

// TestDurableRestartE2E is the restart harness over the full HTTP surface:
// sessions created and fed through one server generation — including a
// TopM/pinned-engine batch-fallback session — must snapshot byte-identically
// from a second generation started on the same -data directory; a session the
// first generation TTL-evicted must stay gone; and a reconstruction the first
// generation cached must come back from the second's cold L1 as an L2 hit
// with a byte-identical body.
func TestDurableRestartE2E(t *testing.T) {
	dataDir := t.TempDir()
	cacheDir := t.TempDir()
	clk := &durableClock{t: time.Unix(5000, 0)}
	dc := durableConfig{dataDir: dataDir, walSync: "never", cacheDir: cacheDir}
	sc := serve.Config{TTL: time.Minute, Now: clk.now}

	srv1, ts1 := newDurableServer(t, sc, dc)
	if srv1.recovered != 0 {
		t.Fatalf("fresh data dir recovered %d sessions", srv1.recovered)
	}

	// Three sessions: an incremental one, a batch-fallback one (TopM + pinned
	// engine survive via the journal's create record), and a doomed one the
	// TTL will evict before the restart.
	createStream(t, ts1.URL, `{"id": "inc", "width": 6}`)
	cr := createStream(t, ts1.URL, `{"id": "topm", "width": 6, "config": {"topm": 2, "engine": "bucketed"}}`)
	if cr.Incremental {
		t.Fatal("topm session reported incremental; want batch fallback")
	}
	createStream(t, ts1.URL, `{"id": "doomed", "width": 6}`)
	for id, body := range map[string]string{
		"inc":    `{"counts": {"111100": 40, "101100": 7, "011100": 5, "000011": 2}}`,
		"topm":   `{"shots": ["110011", "110011", "110011", "000111", "101010"]}`,
		"doomed": `{"shots": ["111111"]}`,
	} {
		if code, resp := postJSON(t, ts1.URL+"/v1/stream/"+id+"/shots", body); code != http.StatusOK {
			t.Fatalf("ingest %s: status %d: %s", id, code, resp)
		}
	}

	// Warm the result cache: miss fills L1 and L2, repeat hits L1.
	reconBody := `{"111100": 40, "101100": 7, "011100": 5}`
	code, missBody, hdr := postHeaders(t, ts1.URL+"/v1/reconstruct", reconBody)
	if code != http.StatusOK || hdr.Get(cacheHeader) != cacheMiss {
		t.Fatalf("warmup status %d, cache %q", code, hdr.Get(cacheHeader))
	}
	if _, _, hdr := postHeaders(t, ts1.URL+"/v1/reconstruct", reconBody); hdr.Get(cacheHeader) != cacheHit {
		t.Fatalf("second request cache %q, want L1 hit", hdr.Get(cacheHeader))
	}

	// Keep inc and topm fresh across the horizon; doomed idles out.
	clk.advance(40 * time.Second)
	snap1 := map[string][]byte{}
	for _, id := range []string{"inc", "topm"} {
		code, body := doJSON(t, http.MethodGet, ts1.URL+"/v1/stream/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("snapshot %s: status %d: %s", id, code, body)
		}
		snap1[id] = body
	}
	clk.advance(40 * time.Second)
	if code, _ := doJSON(t, http.MethodGet, ts1.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatal("healthz sweep failed")
	}
	if code, _ := doJSON(t, http.MethodGet, ts1.URL+"/v1/stream/doomed", ""); code != http.StatusNotFound {
		t.Fatalf("evicted session still served pre-restart: %d", code)
	}

	// "Process exit": stop the listener, close the journal.
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newDurableServer(t, sc, dc)
	if srv2.recovered != 2 {
		t.Fatalf("recovered %d sessions, want 2 (doomed was tombstoned)", srv2.recovered)
	}

	// healthz reports the durability story.
	code, body := doJSON(t, http.MethodGet, ts2.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var health struct {
		Durable           bool   `json:"durable"`
		RecoveredSessions int    `json:"recovered_sessions"`
		CacheL2           bool   `json:"cache_l2"`
		WALSync           string `json:"wal_sync"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if !health.Durable || health.RecoveredSessions != 2 || !health.CacheL2 || health.WALSync != "never" {
		t.Fatalf("healthz durability fields: %+v", health)
	}

	// Recovered sessions snapshot byte-identically to the pre-restart run.
	for _, id := range []string{"inc", "topm"} {
		code, body := doJSON(t, http.MethodGet, ts2.URL+"/v1/stream/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("post-restart snapshot %s: status %d: %s", id, code, body)
		}
		if !bytes.Equal(body, snap1[id]) {
			t.Fatalf("session %s snapshot diverged across restart:\npre:  %s\npost: %s", id, snap1[id], body)
		}
	}
	// The evicted session must not be resurrected by replay.
	if code, _ := doJSON(t, http.MethodGet, ts2.URL+"/v1/stream/doomed", ""); code != http.StatusNotFound {
		t.Fatalf("evicted session resurrected by restart: %d", code)
	}
	// Recovered sessions are live: further ingest and snapshot work.
	if code, resp := postJSON(t, ts2.URL+"/v1/stream/inc/shots", `{"shots": ["111100"]}`); code != http.StatusOK {
		t.Fatalf("post-restart ingest: %d: %s", code, resp)
	}

	// The cold L1 misses; the file-backed L2 serves the byte-identical body.
	code, l2Body, hdr := postHeaders(t, ts2.URL+"/v1/reconstruct", reconBody)
	if code != http.StatusOK || hdr.Get(cacheHeader) != cacheHitL2 {
		t.Fatalf("post-restart reconstruct status %d, cache %q (want %q)", code, hdr.Get(cacheHeader), cacheHitL2)
	}
	if !bytes.Equal(l2Body, missBody) {
		t.Fatalf("L2 hit body differs from the miss that filled it:\nmiss: %s\nl2:   %s", missBody, l2Body)
	}
	// The hit was promoted into L1.
	if _, _, hdr := postHeaders(t, ts2.URL+"/v1/reconstruct", reconBody); hdr.Get(cacheHeader) != cacheHit {
		t.Fatalf("L2 hit not promoted to L1: cache %q", hdr.Get(cacheHeader))
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeDurableFlagValidation: a bad -wal-sync value fails construction
// rather than silently defaulting.
func TestServeDurableFlagValidation(t *testing.T) {
	_, err := newServerFull(hammer.Config{}, 1, "", serve.Config{},
		cache.DefaultEntries, durableConfig{dataDir: t.TempDir(), walSync: "sometimes"})
	if err == nil {
		t.Fatal("invalid -wal-sync accepted")
	}
}

// legacyKey is the cache key derivation of builds before cache.KeyVersion
// existed: SHA-256 over the length-prefixed sorted string keys and value
// bits, then the options, with no version stamp.
func legacyKey(histogram map[string]float64, opts core.Options) string {
	h := sha256.New()
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
	engine := opts.Engine
	if engine == "" {
		engine = core.EngineAuto
	}
	fmt.Fprintf(h, "|r=%d|w=%d|f=%t|m=%d|e=%s",
		opts.Radius, opts.Weights, opts.DisableFilter, opts.TopM, engine)
	return hex.EncodeToString(h.Sum(nil))
}

// TestServeL2IgnoresLegacyEntries: an L2 entry a pre-version build wrote
// under the unversioned key in the shared cache directory is a miss for this
// build, which then serves and stores its own bytes. The planted body is a
// wrong answer (support 1 for a 3-outcome histogram), so serving it shows.
func TestServeL2IgnoresLegacyEntries(t *testing.T) {
	cacheDir := t.TempDir()
	srv, ts := newDurableServer(t, serve.Config{}, durableConfig{cacheDir: cacheDir})
	reconBody := `{"1111": 812, "1110": 403, "0111": 200}`
	var counts map[string]float64
	if err := json.Unmarshal([]byte(reconBody), &counts); err != nil {
		t.Fatal(err)
	}
	opts := srv.sch.Options()
	old := legacyKey(counts, opts)
	if old == cache.Key(counts, opts) {
		t.Fatal("versioned key equals the legacy key")
	}
	stale := []byte("{\n \"dist\": {\n  \"1111\": 1\n },\n \"support\": 1,\n \"engine\": \"exact\",\n \"radius\": 4\n}\n")
	l2, err := cache.NewDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	l2.Put(old, l2Encode("exact", stale))
	if _, ok := l2.Get(old); !ok {
		t.Fatal("legacy entry not stored")
	}

	code, body, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", reconBody)
	if code != http.StatusOK || hdr.Get(cacheHeader) != cacheMiss {
		t.Fatalf("status %d, cache %q: want a miss past the legacy entry", code, hdr.Get(cacheHeader))
	}
	if bytes.Equal(body, stale) {
		t.Fatalf("served the legacy body:\n%s", body)
	}
	if raw, ok := l2.Get(cache.Key(counts, opts)); !ok {
		t.Fatal("miss not stored under the versioned key")
	} else if _, stored, _ := l2Decode(raw); !bytes.Equal(stored, body) {
		t.Fatal("stored entry differs from the served body")
	}
}
