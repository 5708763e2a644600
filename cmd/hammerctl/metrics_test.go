package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	hammer "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// scrape fetches /metrics, validates it as Prometheus text exposition
// format with the pure-Go checker, and returns the body.
func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateText(body); err != nil {
		t.Fatalf("/metrics output invalid: %v\n%s", err, body)
	}
	return string(body)
}

// TestServeMetricsEndpoint drives traffic over every subsystem and checks
// the scrape covers scheduler, session, HTTP, and cache metrics.
func TestServeMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 2)

	// One cacheable reconstruction, twice: a miss then a hit.
	in := `{"111": 30, "110": 10, "001": 5}`
	if code, _ := postJSON(t, ts.URL+"/v1/reconstruct", in); code != http.StatusOK {
		t.Fatalf("reconstruct = %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/reconstruct", in); code != http.StatusOK {
		t.Fatalf("reconstruct = %d", code)
	}
	// One streaming session with a snapshot.
	if code, _ := postJSON(t, ts.URL+"/v1/stream", `{"width": 3, "id": "m1"}`); code != http.StatusCreated {
		t.Fatal("stream create failed")
	}
	if code, _ := postJSON(t, ts.URL+"/v1/stream/m1/shots?snapshot=1", `{"shots": ["111", "110"]}`); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	// Error traffic that must be counted too.
	if code, _ := postJSON(t, ts.URL+"/v1/reconstruct", `{`); code != http.StatusBadRequest {
		t.Fatal("want 400")
	}
	resp, err := http.Get(ts.URL + "/v1/stream/no-such-session")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatal("want 404")
	}

	out := scrape(t, ts.URL)
	for _, want := range []string{
		// Scheduler: 3 slot grants (2 reconstructs... the hit skips the
		// scheduler — see below) and all gauges drained.
		"hammer_sched_queue_depth 0",
		"hammer_sched_inflight 0",
		"hammer_sched_wait_seconds_count",
		"hammer_sched_run_seconds_count",
		// Sessions.
		"hammer_sessions_live 1",
		"hammer_sessions_created_total 1",
		"hammer_sessions_evicted_total 0",
		// HTTP, including the 4xx error paths.
		`hammer_http_requests_total{endpoint="/v1/reconstruct",code="2xx"} 2`,
		`hammer_http_requests_total{endpoint="/v1/reconstruct",code="4xx"} 1`,
		`hammer_http_requests_total{endpoint="/v1/stream",code="2xx"} 1`,
		`hammer_http_requests_total{endpoint="/v1/stream/{id}/shots",code="2xx"} 1`,
		`hammer_http_requests_total{endpoint="/v1/stream/{id}",code="4xx"} 1`,
		`hammer_http_request_seconds_count{endpoint="/v1/reconstruct"} 3`,
		`hammer_http_request_body_bytes_total{endpoint="/v1/reconstruct"}`,
		// Cache: one miss, one hit.
		"hammer_cache_hits_total 1",
		"hammer_cache_misses_total 1",
		"hammer_cache_evictions_total 0",
		"hammer_cache_entries 1",
		"hammer_cache_capacity 1024",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// A cache hit must not consume a scheduler slot: 2xx reconstructs (2) +
	// snapshot (1) minus the hit = 2 slot grants.
	if !strings.Contains(out, "hammer_sched_run_seconds_count 2\n") {
		t.Errorf("scheduler should have served exactly 2 requests (hit bypasses it):\n%s",
			grepLines(out, "hammer_sched_run_seconds_count"))
	}
	// The scrape itself is counted on the next scrape.
	out = scrape(t, ts.URL)
	if !strings.Contains(out, `hammer_http_requests_total{endpoint="/metrics",code="2xx"} 1`) {
		t.Error("/metrics requests not counted")
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestServeMetricsMethodAndRouteLabels covers 405 on /metrics and the
// "other" endpoint label for unrouted paths.
func TestServeMetricsMethodAndRouteLabels(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 1)
	if code, _ := postJSON(t, ts.URL+"/metrics", "{}"); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/stream/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	out := scrape(t, ts.URL)
	for _, want := range []string{
		`hammer_http_requests_total{endpoint="/metrics",code="4xx"} 1`,
		`hammer_http_requests_total{endpoint="other",code="4xx"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, grepLines(out, "hammer_http_requests_total"))
		}
	}
}

// TestServeErrorPathsCounted pins the PR-4 hardening paths (415 content
// type, 413 oversized body) into the request metrics.
func TestServeErrorPathsCounted(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 1)
	// 415: curl's default form content type.
	resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/x-www-form-urlencoded",
		strings.NewReader(`{"1": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("form post = %d, want 415", resp.StatusCode)
	}
	// 413: a body over the cap. Don't allocate 32 MiB: stream zeros.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch",
		io.LimitReader(zeros{}, maxRequestBytes+2))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err == nil {
		// The server may reset the upload once the cap trips; reaching the
		// response at all means we can assert on it.
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized post = %d, want 413", resp.StatusCode)
		}
		// MaxBytesReader must still reach the real connection through the
		// middleware's writer wrapper: a 413 closes the connection rather
		// than leaving a keep-alive client to pipeline onto a dead upload.
		if !resp.Close {
			t.Error("413 response did not signal Connection: close")
		}
		resp.Body.Close()
	}
	out := scrape(t, ts.URL)
	if !strings.Contains(out, `hammer_http_requests_total{endpoint="/v1/reconstruct",code="4xx"} 1`) {
		t.Errorf("415 not counted:\n%s", grepLines(out, "hammer_http_requests_total"))
	}
	if !strings.Contains(out, `hammer_http_requests_total{endpoint="/v1/batch",code="4xx"} 1`) {
		t.Errorf("413 not counted:\n%s", grepLines(out, "hammer_http_requests_total"))
	}
}

// zeros is an endless stream of '0' bytes (valid JSON prefix not required —
// the body cap trips before parsing).
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestServeReconstructCacheHit pins the caching contract end to end: first
// request misses, the repeat hits, and the hit's distribution is identical
// (to 1e-12) both to the miss response and to a fresh library
// reconstruction. A config override keys separately; a cache-disabled
// server serves the same bytes with no header.
func TestServeReconstructCacheHit(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 2)
	srvOff, err := newServerWith(hammer.Config{}, 2, serve.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tsOff := httptest.NewServer(srvOff.mux())
	t.Cleanup(tsOff.Close)

	histogram := map[string]float64{"1111": 812, "1110": 403, "0111": 200, "0001": 12}
	body, err := json.Marshal(histogram)
	if err != nil {
		t.Fatal(err)
	}

	post := func(url string) (*http.Response, reconstructResponse) {
		t.Helper()
		resp, err := http.Post(url+"/v1/reconstruct", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var rr reconstructResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return resp, rr
	}

	first, missResp := post(ts.URL)
	if got := first.Header.Get("X-Hammer-Cache"); got != "miss" {
		t.Fatalf("first request X-Hammer-Cache = %q, want miss", got)
	}
	second, hitResp := post(ts.URL)
	if got := second.Header.Get("X-Hammer-Cache"); got != "hit" {
		t.Fatalf("second request X-Hammer-Cache = %q, want hit", got)
	}

	// Pin the hit against a fresh, uncached reconstruction three ways: the
	// miss response, a cache-disabled server, and the library itself.
	offResp, offBody := post(tsOff.URL)
	if got := offResp.Header.Get("X-Hammer-Cache"); got != "" {
		t.Errorf("disabled cache set X-Hammer-Cache = %q", got)
	}
	fresh, err := hammer.RunWithConfig(histogram, hammer.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, against := range map[string]map[string]float64{
		"miss response":         missResp.Dist,
		"cache-disabled server": offBody.Dist,
		"fresh library run":     fresh,
	} {
		if len(hitResp.Dist) != len(against) {
			t.Fatalf("%s: support %d vs %d", name, len(hitResp.Dist), len(against))
		}
		for k, p := range against {
			if math.Abs(hitResp.Dist[k]-p) > 1e-12 {
				t.Errorf("%s: %s differs: %v vs %v", name, k, hitResp.Dist[k], p)
			}
		}
	}
	if hitResp.Engine != missResp.Engine || hitResp.Radius != missResp.Radius || hitResp.Support != missResp.Support {
		t.Errorf("hit metadata %+v vs miss %+v", hitResp, missResp)
	}

	// A different config override is a different key: miss, not hit.
	wrapped := fmt.Sprintf(`{"counts": %s, "config": {"radius": 2}}`, body)
	resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json", strings.NewReader(wrapped))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Hammer-Cache"); got != "miss" {
		t.Errorf("override request X-Hammer-Cache = %q, want miss", got)
	}
	// But the bare and wrapped spellings of the SAME request share a key.
	resp, err = http.Post(ts.URL+"/v1/reconstruct", "application/json",
		strings.NewReader(fmt.Sprintf(`{"counts": %s}`, body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Hammer-Cache"); got != "hit" {
		t.Errorf("wrapped spelling X-Hammer-Cache = %q, want hit", got)
	}
}

// Error responses must not be cached or stamped with the cache header, and
// an invalid histogram is rejected before the cache is consulted: it counts
// as neither a hit nor a miss.
func TestServeCacheSkipsErrors(t *testing.T) {
	srv, err := newServer(hammer.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	for _, body := range []string{
		`{"01": 1, "001": 1}`, // mixed widths
		`{"0x": 1}`,
		`{"01": -1, "10": 2}`,
		`{"01": 0}`,
		`{"counts": {"01": 1, "001": 1}}`,
	} {
		for i := 0; i < 2; i++ {
			resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status %d", body, resp.StatusCode)
			}
			if got := resp.Header.Get("X-Hammer-Cache"); got != "" {
				t.Errorf("%s: error response %d carried X-Hammer-Cache=%q", body, i, got)
			}
		}
	}
	if hits, misses := srv.cache.Hits(), srv.cache.Misses(); hits != 0 || misses != 0 {
		t.Errorf("invalid bodies counted %d hits, %d misses; want none", hits, misses)
	}
	if out := scrape(t, ts.URL); !strings.Contains(out, "hammer_cache_misses_total 0\n") {
		t.Errorf("hammer_cache_misses_total moved on invalid bodies:\n%s", out)
	}
}

// TestServeCacheSpellingsShareEntry: the bare spelling, the wrapped
// spelling, a permuted key order, and a whitespace variant of one histogram
// decode to one canonical form, so after the first miss each is a hit with
// the byte-identical body.
func TestServeCacheSpellingsShareEntry(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 1)
	bare := `{"0001":12,"0111":200,"1110":403,"1111":812}`
	code, missBody, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", bare)
	if code != http.StatusOK || hdr.Get(cacheHeader) != cacheMiss {
		t.Fatalf("first request: %d %q", code, hdr.Get(cacheHeader))
	}
	for name, body := range map[string]string{
		"bare":       bare,
		"wrapped":    `{"counts": ` + bare + `, "deadline_ms": 60000}`,
		"permuted":   `{"1111":812,"0001":12,"1110":403,"0111":200}`,
		"whitespace": "{\n  \"0001\" : 12 ,\n  \"0111\": 200,\t\"1110\": 403, \"1111\": 812\n}\n",
	} {
		code, body, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", body)
		if code != http.StatusOK || hdr.Get(cacheHeader) != cacheHit {
			t.Errorf("%s: %d %q, want 200 hit", name, code, hdr.Get(cacheHeader))
		}
		if !bytes.Equal(body, missBody) {
			t.Errorf("%s: hit body differs from the miss body:\n%s\n%s", name, body, missBody)
		}
	}
}
