package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// call is one pre-encoded request.
type call struct {
	method string
	path   string
	body   []byte
}

// reply is one response as a check sees it. body aliases the client's read
// buffer and is only valid during the check.
type reply struct {
	status int
	cache  string // X-Hammer-Cache
	body   []byte
}

// client is one closed-loop HTTP client: one keep-alive connection, one
// reusable read buffer.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	// corrupt flips a digit of the first probability in every body read
	// (the -corrupt self-check).
	corrupt bool
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response into the client's
// buffer.
func (c *client) do(k call) (reply, error) {
	var body io.Reader
	if k.body != nil {
		body = bytes.NewReader(k.body)
	}
	req, err := http.NewRequest(k.method, c.base+k.path, body)
	if err != nil {
		return reply{}, err
	}
	if k.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	if c.corrupt {
		b := c.buf.Bytes()
		if i := bytes.Index(b, []byte(": 0.")); i >= 0 {
			b[i+4] ^= 1
		}
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Hammer-Cache"), body: c.buf.Bytes()}, nil
}

// mustDo is do for set-up and verification calls, where anything but the
// wanted status is an error.
func (c *client) mustDo(k call, want int) ([]byte, error) {
	r, err := c.do(k)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", k.method, k.path, err)
	}
	if r.status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", k.method, k.path, r.status, want, r.body)
	}
	return bytes.Clone(r.body), nil
}

// window is the outcome of one timed closed-loop window.
type window struct {
	latency []time.Duration // per call index; 0 for calls that failed
	failed  []bool
	reasons []string // first few failure reasons
	elapsed time.Duration
}

// runWindow drives the calls in a closed loop: client i sends perClient[i]
// in order, each request only after the previous reply was read. check runs
// on every reply and must be cheap; a non-nil error marks the call failed.
func runWindow(base string, calls []call, perClient [][]int, check func(i int, r reply) error, corrupt bool) *window {
	w := &window{latency: make([]time.Duration, len(calls)), failed: make([]bool, len(calls))}
	var mu sync.Mutex
	fail := func(i int, err error) {
		mu.Lock()
		w.failed[i] = true
		if len(w.reasons) < 5 {
			w.reasons = append(w.reasons, fmt.Sprintf("call %d %s: %v", i, calls[i].path, err))
		}
		mu.Unlock()
	}
	clients := make([]*client, len(perClient))
	for i := range clients {
		clients[i] = newClient(base)
		clients[i].corrupt = corrupt
		defer clients[i].close()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for ci, idx := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := clients[ci]
			for _, i := range idx {
				t := time.Now()
				r, err := c.do(calls[i])
				lat := time.Since(t)
				if err == nil {
					err = check(i, r)
				}
				if err != nil {
					fail(i, err)
					continue
				}
				w.latency[i] = lat
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// ok reports the succeeded calls' latencies.
func (w *window) ok() []time.Duration {
	var out []time.Duration
	for i, l := range w.latency {
		if !w.failed[i] {
			out = append(out, l)
		}
	}
	return out
}

func (w *window) numFailed() int {
	n := 0
	for _, f := range w.failed {
		if f {
			n++
		}
	}
	return n
}

// expect is the common reply check: the wanted status, and the wanted
// X-Hammer-Cache value when cacheWant is non-empty.
func expect(r reply, status int, cacheWant string) error {
	if r.status != status {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	if cacheWant != "" && r.cache != cacheWant {
		return fmt.Errorf("X-Hammer-Cache %q, want %q", r.cache, cacheWant)
	}
	return nil
}
