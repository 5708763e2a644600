package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	hammer "repro"
	"repro/internal/bitstr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/serve"
	"repro/internal/wal"
)

// span is one timed call into a layer. Times are offsets from the tracer's
// origin; parent is the enclosing span's index (-1 for a request's root).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int32         `json:"parent"`
	Req    int32         `json:"req"`
}

// tracer records spans in memory. A nil *tracer records nothing, which is
// the untraced replay the tracing overhead is measured against.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	req   int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), req: -1} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Req: t.req})
	t.open = append(t.open, int32(len(t.spans)-1))
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0)
}

// request opens the root span of the next request.
func (t *tracer) request(name string) {
	if t == nil {
		return
	}
	t.req++
	t.begin(name)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the self time each request spent in it
// (span duration minus the time its child spans cover), summed within the
// request. Requests that never entered a layer have no entry for it.
func (t *tracer) selfTimes() map[string]map[int32]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]map[int32]time.Duration{}
	for i, s := range t.spans {
		m := out[s.Name]
		if m == nil {
			m = map[int32]time.Duration{}
			out[s.Name] = m
		}
		m[s.Req] += s.End - s.Start - child[i]
	}
	return out
}

// reconstruction is what a replayed reconstruct knew before it ran: the
// pair count of its triangular scan and the cost model's prediction.
type reconstruction struct {
	req       int32
	pairs     int64
	predicted time.Duration
}

// replayStats is one replay's own measurements.
type replayStats struct {
	// requestMean is the mean wall time of a replayed request from the timed
	// sequence (warm-up requests excluded).
	requestMean time.Duration
	recon       []reconstruction
}

// replayLen is how much of a timed sequence the in-process replays cover.
func replayLen(n int) int { return min(n, 100) }

// sink keeps replayed results live so the compiler cannot drop the calls.
var sink any

// wireReconstruct mirrors hammerctl's /v1/reconstruct response shape.
type wireReconstruct struct {
	Dist    map[string]float64 `json:"dist"`
	Support int                `json:"support"`
	Engine  string             `json:"engine"`
	Radius  int                `json:"radius"`
}

// renderJSON renders v as the server's encodeJSON does: indented with one
// space, newline-terminated.
func renderJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("render: %v", err)) // wire shapes always encode
	}
	return buf.Bytes()
}

type cachedResult struct {
	body   []byte
	engine string
}

// replayReconstruct replays /v1/reconstruct in-process: first one miss per
// histogram (the warm-up pass, when warm is set), then the timed order.
// l2 non-empty adds the second-level cache write the -cache-dir server does.
func replayReconstruct(tr *tracer, hists []map[string]int, order []int, l2dir string, warm bool) (*replayStats, error) {
	bodies := make([][]byte, len(hists))
	for i, h := range hists {
		bodies[i] = mustJSON(h)
	}
	opts := defaultOptions()
	sess, err := core.NewSession(opts)
	if err != nil {
		return nil, err
	}
	lru := cache.New[cachedResult](cache.DefaultEntries)
	l2, err := cache.NewDir(l2dir)
	if err != nil {
		return nil, err
	}
	st := &replayStats{}
	one := func(body []byte) error {
		tr.request("request")
		defer tr.end()
		tr.begin("wire.decode")
		var counts map[string]float64
		err := json.Unmarshal(body, &counts)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("cache.key")
		key := cache.Key(counts, opts)
		tr.end()
		tr.begin("cache.l1_get")
		hit, ok := lru.Get(key)
		tr.end()
		if ok {
			sink = hit.body
			return nil
		}
		tr.begin("dist.from_histogram")
		in, _, err := dist.FromHistogram(counts)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("dist.index_build")
		sink = dist.NewIndex(in)
		tr.end()
		_, predicted, _ := core.PredictCost(opts, in.Len(), in.NumBits())
		st.recon = append(st.recon, reconstruction{
			req: reqID(tr), pairs: dist.NewStripePlan(in.Len(), 1).TotalPairs(), predicted: predicted})
		tr.begin("core.reconstruct")
		res, err := sess.Reconstruct(context.Background(), in)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("dist.to_histogram")
		h := dist.ToHistogram(res.Out)
		tr.end()
		tr.begin("wire.render")
		out := renderJSON(wireReconstruct{Dist: h, Support: res.Out.Len(), Engine: res.Engine, Radius: res.Radius})
		tr.end()
		tr.begin("cache.l1_put")
		lru.Put(key, cachedResult{body: out, engine: res.Engine})
		tr.end()
		if l2 != nil {
			tr.begin("cache.l2_put")
			l2.Put(key, l2Frame(res.Engine, out))
			tr.end()
		}
		sink = out
		return nil
	}
	if warm {
		for _, b := range bodies {
			if err := one(b); err != nil {
				return nil, err
			}
		}
	}
	t := time.Now()
	for _, i := range order {
		if err := one(bodies[i]); err != nil {
			return nil, err
		}
	}
	st.requestMean = time.Since(t) / time.Duration(max(1, len(order)))
	return st, nil
}

// reqID is the current request's id, or -1 untraced.
func reqID(tr *tracer) int32 {
	if tr == nil {
		return -1
	}
	return tr.req
}

// l2Frame frames a second-level cache entry as hammerctl does: uvarint
// engine-name length, the name, then the rendered body.
func l2Frame(engine string, body []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(engine)))
	out = append(out, engine...)
	return append(out, body...)
}

// ingest is one shot batch for one live session.
type ingest struct {
	session int
	counts  map[string]int
}

// wireSnapshot mirrors hammerctl's ingest-with-snapshot response shape.
type wireSnapshot struct {
	ID       string `json:"id"`
	Ingested int    `json:"ingested"`
	Shots    int    `json:"shots"`
	Support  int    `json:"support"`
	Snapshot struct {
		ID      string             `json:"id"`
		Shots   int                `json:"shots"`
		Support int                `json:"support"`
		Dist    map[string]float64 `json:"dist"`
		Engine  string             `json:"engine"`
		Radius  int                `json:"radius"`
	} `json:"snapshot"`
}

// recoveries is how many times the replay re-opens its journal.
const recoveries = 5

// replayStream replays live-shots in-process: durable sessions prefilled
// untraced, then the timed batches through decode, ingest, journal record,
// snapshot and render; then the same batches straight into a bare write-ahead
// log (append and compaction on their own); then journal recovery.
func replayStream(tr *tracer, dir string, widths []int, pre, batches []ingest) (*replayStats, error) {
	opts, err := hammer.StreamOptions(serverDefaults)
	if err != nil {
		return nil, err
	}
	store, err := wal.Open(dir+"/serve", wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return nil, err
	}
	closeStore := sync.OnceValue(store.Close)
	defer closeStore()
	mgr := serve.NewManager(serve.Config{Journal: store, TTL: -1})
	bare, err := wal.Open(dir+"/bare", wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return nil, err
	}
	defer bare.Close()
	logs := make([]*wal.Log, len(widths))
	live := make([]map[string]int, len(widths))
	for s, w := range widths {
		if _, err := mgr.Create(sessionID(s), w, opts); err != nil {
			return nil, err
		}
		if logs[s], err = bare.Create(sessionID(s), wal.SessionMeta{Width: w}); err != nil {
			return nil, err
		}
		live[s] = map[string]int{}
	}
	one := func(tr *tracer, b ingest, body []byte) error {
		tr.request("request")
		defer tr.end()
		tr.begin("wire.decode")
		var req struct {
			Counts map[string]int `json:"counts"`
		}
		err := json.Unmarshal(body, &req)
		var c *dist.Counts
		var pairs []wal.Pair
		if err == nil {
			c, pairs, err = parseCounts(widths[b.session], req.Counts)
		}
		tr.end()
		if err != nil {
			return err
		}
		return mgr.DoSession(sessionID(b.session), func(sess *serve.Session) error {
			st := sess.Stream()
			tr.begin("stream.ingest")
			err := st.IngestCounts(c)
			tr.end()
			if err != nil {
				return err
			}
			tr.begin("serve.record")
			err = sess.Record(pairs)
			tr.end()
			if err != nil {
				return err
			}
			tr.begin("stream.snapshot")
			res, err := st.Snapshot()
			tr.end()
			if err != nil {
				return err
			}
			tr.begin("dist.to_histogram")
			h := dist.ToHistogram(res.Out)
			tr.end()
			tr.begin("wire.render")
			var resp wireSnapshot
			resp.ID, resp.Ingested, resp.Shots, resp.Support = sessionID(b.session), c.Total(), st.Shots(), st.Support()
			resp.Snapshot.ID, resp.Snapshot.Shots, resp.Snapshot.Support = resp.ID, st.Shots(), st.Support()
			resp.Snapshot.Dist, resp.Snapshot.Engine, resp.Snapshot.Radius = h, res.Engine, res.Radius
			sink = renderJSON(resp)
			tr.end()
			return nil
		})
	}
	// appendBare journals one batch into the bare log, compacting when the
	// log asks to, exactly as serve.Session.Record does.
	appendBare := func(tr *tracer, b ingest) error {
		_, pairs, err := parseCounts(widths[b.session], b.counts)
		if err != nil {
			return err
		}
		addCounts(live[b.session], b.counts)
		tr.begin("wal.append")
		err = logs[b.session].Append(pairs)
		tr.end()
		if err != nil || !logs[b.session].ShouldCompact(len(live[b.session])) {
			return err
		}
		_, hist, err := parseCounts(widths[b.session], live[b.session])
		if err != nil {
			return err
		}
		tr.begin("wal.compact")
		err = logs[b.session].Compact(hist)
		tr.end()
		return err
	}
	// The prefill is state, not measurement: it runs untraced.
	for _, b := range pre {
		err := one(nil, b, mustJSON(map[string]any{"counts": b.counts}))
		if err == nil {
			err = appendBare(nil, b)
		}
		if err != nil {
			return nil, err
		}
	}
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		bodies[i] = mustJSON(map[string]any{"counts": b.counts})
	}
	t := time.Now()
	for i, b := range batches {
		if err := one(tr, b, bodies[i]); err != nil {
			return nil, err
		}
	}
	st := &replayStats{requestMean: time.Since(t) / time.Duration(max(1, len(batches)))}
	for _, b := range batches {
		tr.request("wal")
		err := appendBare(tr, b)
		tr.end()
		if err != nil {
			return nil, err
		}
	}
	if err := closeStore(); err != nil {
		return nil, err
	}
	for r := 0; r < recoveries; r++ {
		if err := recoverOnce(tr, dir+"/serve"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// recoverOnce re-opens the journal twice: once to replay it with the wal
// store alone, once to rebuild the sessions with the session manager.
func recoverOnce(tr *tracer, dir string) error {
	s, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	tr.request("recover")
	tr.begin("wal.replay")
	recs, err := s.Recover()
	tr.end()
	tr.end()
	sink = recs
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	s, err = wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	m := serve.NewManager(serve.Config{Journal: s, TTL: -1})
	tr.request("recover")
	tr.begin("serve.recover")
	_, err = m.Recover()
	tr.end()
	tr.end()
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

func sessionID(s int) string { return fmt.Sprintf("s%d", s) }

// parseCounts is the ingest handler's reading of a counts body: outcomes in
// ascending order, each parsed and width-checked.
func parseCounts(width int, m map[string]int) (*dist.Counts, []wal.Pair, error) {
	keys := sortedKeys(m)
	c := dist.NewCounts(width)
	pairs := make([]wal.Pair, len(keys))
	for i, k := range keys {
		if len(k) != width {
			return nil, nil, fmt.Errorf("shot %q has %d bits, session has %d", k, len(k), width)
		}
		x, err := bitstr.Parse(k)
		if err != nil {
			return nil, nil, err
		}
		c.AddN(x, m[k])
		pairs[i] = wal.Pair{X: x, K: m[k]}
	}
	return c, pairs, nil
}

// median of a sample: the middle element, or the mean of the two middle
// ones; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
