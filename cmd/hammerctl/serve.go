package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	hammer "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/wal"
)

// maxRequestBytes bounds one HTTP request body. A histogram entry is ~30
// bytes on the wire; 32 MiB admits batches of roughly a million outcomes
// while keeping a malicious body from exhausting memory.
const maxRequestBytes = 32 << 20

// runServe starts the HTTP reconstruction service: a shared bounded-worker
// scheduler with pooled per-request sessions, plus a manager of live
// streaming sessions, behind a small JSON API (documented in docs/api.md):
//
//	POST   /v1/reconstruct        one histogram -> {"dist": ...}
//	POST   /v1/batch              {"requests": [...]} -> {"results": [...]}
//	POST   /v1/stream             create a streaming session
//	POST   /v1/stream/{id}/shots  ingest shots (optional ?snapshot=1)
//	GET    /v1/stream/{id}        snapshot of everything ingested so far
//	DELETE /v1/stream/{id}        delete the session
//	POST   /v1/stream/{id}/handoff adopt a session a draining peer ships
//	GET    /v1/cache/{key}        local cache entry, raw (peer L3 probes)
//	GET    /healthz               {"ok": true, ...}
//	GET    /metrics               Prometheus text format (docs/operations.md)
func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hammerctl serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8787", "listen address")
	maxSessions := fs.Int("max-sessions", serve.DefaultMaxSessions, "cap on live streaming sessions")
	sessionTTL := fs.Duration("session-ttl", serve.DefaultTTL, "idle streaming sessions are evicted after this long (0 = never evict)")
	cacheEntries := fs.Int("cache-entries", cache.DefaultEntries, "LRU result-cache capacity for /v1/reconstruct (0 = disable caching)")
	schedPolicy := fs.String("sched", sched.PolicyFIFO, "worker-slot queue policy: fifo (arrival order) or spjf (shortest predicted job first)")
	calibrate := fs.Bool("calibrate", false, "re-fit the engine cost model on this host before serving (a few seconds of micro-benchmarks)")
	replicas := fs.String("replicas", "", "comma-separated stripe replica base URLs (host:port or full URL); enables the shard coordinator on /v1/reconstruct")
	shardMinSupport := fs.Int("shard-min-support", 0, "shard every reconstruction with at least this many outcomes instead of letting the cost model decide (0 = cost model)")
	dataDir := fs.String("data", "", "data directory for durable streaming sessions (write-ahead shot logs, replayed on startup); empty = in-memory sessions only")
	walSync := fs.String("wal-sync", wal.SyncAlways.String(), "journal durability: always (fsync per ingest) or never (page cache; survives SIGKILL, not power loss)")
	cacheDir := fs.String("cache-dir", "", "directory for the file-backed second-level result cache (shared across restarts); empty = L1 only")
	peers := fs.String("peers", "", "comma-separated peer replica base URLs whose result caches are probed as an L3 tier on local misses")
	peerTimeout := fs.Duration("peer-timeout", 0, "per-probe budget for peer cache lookups (0 = built-in default)")
	drainTo := fs.String("drain-to", "", "peer base URL to hand live streaming sessions off to on SIGINT/SIGTERM (graceful drain); empty = exit without draining")
	quotaRPS := fs.Float64("quota-rps", 0, "per-client request rate limit on the client-facing endpoints (0 = no rate limit); rejections are 429 with Retry-After")
	quotaBurst := fs.Int("quota-burst", 0, "per-client burst allowance on top of -quota-rps (0 = max(1, ceil(rps)))")
	quotaSessions := fs.Int("quota-sessions", 0, "cap on live streaming sessions per client (0 = no per-client cap; anonymous sessions exempt)")
	cfg := configFlags(fs)
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}

	// The flag's 0 means "never evict" (matching the wire docs' reading of
	// a non-positive TTL); the manager's internal encoding for that is a
	// negative TTL, its own zero value selecting the default.
	ttl := *sessionTTL
	if ttl == 0 {
		ttl = -1
	}
	// In serve mode -workers is the request-level concurrency of the shared
	// scheduler, exactly RunBatch's reading of Config.Workers.
	srv, err := newServerFull(*cfg, cfg.Workers, *schedPolicy, serve.Config{
		MaxSessions:       *maxSessions,
		MaxClientSessions: *quotaSessions,
		TTL:               ttl,
	}, *cacheEntries, durableConfig{dataDir: *dataDir, walSync: *walSync, cacheDir: *cacheDir})
	if err != nil {
		return err
	}
	defer srv.Close()
	if *replicas != "" {
		if err := srv.enableSharding(splitReplicas(*replicas), *shardMinSupport); err != nil {
			return err
		}
	}
	if err := srv.enableFleet(fleetConfig{
		peers:       splitReplicas(*peers),
		peerTimeout: *peerTimeout,
		quotaRPS:    *quotaRPS,
		quotaBurst:  *quotaBurst,
	}); err != nil {
		return err
	}
	if *calibrate {
		// Replace the committed-benchmark constants with ones timed on this
		// host, so engine selection, SPJF ordering, and deadline admission
		// predict this machine rather than the CI runner that fitted the
		// defaults.
		model, err := core.Calibrate(context.Background())
		if err != nil {
			return fmt.Errorf("cost-model calibration: %w", err)
		}
		fmt.Fprintf(stdout, "hammerctl: cost model calibrated on this host (%d engines)\n", len(model.Engines))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Janitor: the manager sweeps lazily on access, but an idle server must
	// still release evicted sessions' memory. The done channel ends the
	// goroutine when Serve returns (Ticker.Stop alone does not close C).
	if ttl := srv.mgr.TTL(); ttl > 0 {
		// Clamp the sweep interval: a sub-second TTL must not hand
		// NewTicker a zero (panic) or hot-spinning interval.
		interval := ttl / 2
		if interval < time.Second {
			interval = time.Second
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case <-ticker.C:
					srv.mgr.Sweep()
				case <-done:
					return
				}
			}
		}()
	}
	fmt.Fprintf(stdout, "hammerctl: serving on %s (%d workers, engine %s, %s scheduling, %d session slots, %d cache entries)\n",
		ln.Addr(), srv.sch.Workers(), engineLabel(srv.sch.Options().Engine), srv.sch.Policy(), srv.mgr.MaxSessions(), srv.cache.Capacity())
	if srv.coord != nil {
		fmt.Fprintf(stdout, "hammerctl: shard coordinator enabled (%d replicas)\n", srv.coord.NumReplicas())
	}
	if srv.journal != nil {
		fmt.Fprintf(stdout, "hammerctl: durable sessions in %s (wal-sync %s, %d recovered)\n",
			*dataDir, srv.journal.Sync(), srv.recovered)
	}
	if srv.l2 != nil {
		fmt.Fprintf(stdout, "hammerctl: second-level result cache in %s (%d entries)\n", *cacheDir, srv.l2.Len())
	}
	if srv.peers != nil {
		fmt.Fprintf(stdout, "hammerctl: peer cache tier enabled (%d peers)\n", srv.peers.NumPeers())
	}
	hs := &http.Server{Handler: srv.mux(), ReadHeaderTimeout: 10 * time.Second}
	if *drainTo == "" {
		return hs.Serve(ln)
	}
	// Graceful drain: on SIGINT/SIGTERM, stop accepting requests, let the
	// in-flight ones finish, then ship every live session to the drain peer.
	// Sessions that fail to ship stay journaled locally for the next start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop()
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(stderr, "hammerctl: shutdown: %v\n", err)
		}
		n, err := srv.drainSessions(shutCtx, *drainTo)
		fmt.Fprintf(stdout, "hammerctl: drained %d sessions to %s\n", n, *drainTo)
		return err
	}
}

func engineLabel(name string) string {
	if name == "" {
		return core.EngineAuto
	}
	return name
}

// server is the HTTP facade over one shared scheduler, the streaming session
// manager, the result cache, and the metrics registry. base is the
// server-level Config the CLI flags set; wire bodies may override it per
// request ("config") or per session.
type server struct {
	sch  *sched.Scheduler
	mgr  *serve.Manager
	base hammer.Config
	// cache maps a canonical (histogram, options) key to the rendered
	// response body plus the engine that produced it, so a hit writes stored
	// bytes verbatim — byte-identical to the miss that filled it, with no
	// re-encoding on the hot path — and still reports X-Hammer-Engine.
	cache   *cache.LRU[cachedResult]
	metrics *serverMetrics
	// l2 is the optional second-level result cache (-cache-dir): any
	// cache.Backend, concretely the file-backed cache.Dir, consulted on L1
	// misses and written alongside L1 so entries survive restarts. Entries
	// frame the engine name with the rendered body (l2Encode), keeping hits
	// byte-identical to the miss that stored them.
	l2 cache.Backend
	// journal, when non-nil (-data), is the wal store behind the session
	// manager; the server closes it when Serve returns. recovered is the
	// session count Recover rebuilt at startup, surfaced in /healthz.
	journal   *wal.Store
	recovered int
	// coord, when non-nil (-replicas), fans large /v1/reconstruct requests
	// out as pair-balanced stripes to replica servers; see shardserve.go.
	coord *shard.Coordinator
	// peers, when non-nil (-peers), probes peer replicas' caches as an L3
	// tier behind l2; limiter, when non-nil (-quota-rps), rate-limits the
	// client-facing routes per client. Both are wired by enableFleet
	// (servefleet.go).
	peers   *cache.Peers
	limiter *serve.Limiter
	// stripeSessions pools the Workers:1 sessions /v1/shard/reconstruct and
	// the coordinator's local stripe fallback score on (ScoreStripe ignores
	// session options — the spec fully describes the work).
	stripeSessions sync.Pool
}

// cachedResult is one stored /v1/reconstruct response: the rendered body and
// the engine name for the X-Hammer-Engine header (also inside the body, but
// stored separately so a hit never re-parses what it is about to write).
type cachedResult struct {
	Body   []byte
	Engine string
}

// newServer builds a server with default session-manager limits, queue
// policy, and cache capacity (tests and embedders); runServe passes the
// flag-configured values via newServerWith.
func newServer(cfg hammer.Config, workers int) (*server, error) {
	return newServerWith(cfg, workers, serve.Config{}, cache.DefaultEntries)
}

// newServerWith builds the scheduler, session manager, result cache, and
// metrics the handlers share. The -workers flag is the request-level
// concurrency (the shared budget single requests, batch members, and
// streaming snapshots draw from), exactly as in hammer.RunBatch; each request
// runs single-threaded inside its slot. The option mapping is the facade's
// own (hammer.NewScheduler / hammer.SessionOptions), so serve honors every
// Config knob the library does. cacheEntries caps the /v1/reconstruct result
// cache (0 disables caching; the cache metrics then render as zeros).
func newServerWith(cfg hammer.Config, workers int, sc serve.Config, cacheEntries int) (*server, error) {
	return newServerPolicy(cfg, workers, "", sc, cacheEntries)
}

// newServerPolicy is newServerWith with an explicit scheduler queue policy
// (the -sched flag): "" or "fifo" grants slots in arrival order, "spjf" by
// shortest model-predicted runtime.
func newServerPolicy(cfg hammer.Config, workers int, policy string, sc serve.Config, cacheEntries int) (*server, error) {
	return newServerFull(cfg, workers, policy, sc, cacheEntries, durableConfig{})
}

// durableConfig carries the durability flags: a data directory enables the
// write-ahead session journal, a cache directory the file-backed second-level
// result cache. Both empty is the in-memory-only server.
type durableConfig struct {
	// dataDir is -data: the journal's root (sessions/ is created under it).
	dataDir string
	// walSync is -wal-sync: "always" (fsync per append; default) or "never"
	// (page cache; survives SIGKILL but not power loss).
	walSync string
	// cacheDir is -cache-dir: the second-level result cache's root.
	cacheDir string
}

// newServerFull is the complete constructor: scheduler, session manager,
// both cache tiers, journal, and metrics. With a data directory it also
// replays the journal, so the returned server already holds every session a
// previous process journaled (minus deleted/evicted ones, whose logs were
// pruned). The caller owns srv.Close.
func newServerFull(cfg hammer.Config, workers int, policy string, sc serve.Config, cacheEntries int, dc durableConfig) (*server, error) {
	sch, err := hammer.NewSchedulerPolicy(cfg, workers, policy)
	if err != nil {
		return nil, err
	}
	var journal *wal.Store
	if dc.dataDir != "" {
		sync, err := wal.ParseSyncPolicy(dc.walSync)
		if err != nil {
			return nil, err
		}
		journal, err = wal.Open(dc.dataDir, wal.Options{Sync: sync})
		if err != nil {
			return nil, err
		}
		sc.Journal = journal
	}
	l2, err := cache.NewDir(dc.cacheDir)
	if err != nil {
		return nil, err
	}
	c := cache.New[cachedResult](cacheEntries)
	mgr := serve.NewManager(sc)
	m := newServerMetrics(mgr.Len, c, l2)
	sch.Instrument(m.sched)
	mgr.Instrument(m.serve)
	srv := &server{sch: sch, mgr: mgr, base: cfg, cache: c, metrics: m, journal: journal}
	if l2 != nil {
		// Guarded assignment: a typed-nil *cache.Dir in the interface would
		// make healthz report an L2 that is not there.
		srv.l2 = l2
	}
	srv.stripeSessions.New = func() any {
		sess, err := core.NewSession(core.Options{Workers: 1})
		if err != nil {
			// Unreachable: constant, valid options.
			panic(err)
		}
		return sess
	}
	if journal != nil {
		// Instrumented above, so recovery shows up in hammer_wal_*.
		journal.Instrument(m.wal)
		n, err := mgr.Recover()
		if err != nil {
			journal.Close()
			return nil, err
		}
		srv.recovered = n
	}
	return srv, nil
}

// Close releases the server's durable resources (the journal's open logs).
// In-flight requests must have drained first.
func (s *server) Close() error {
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// mux registers the routes. Patterns use net/http's 1.22+ wildcard syntax,
// and the middleware reads the matched pattern back (http.Request.Pattern)
// as the metrics endpoint label — one route table serves both dispatch and
// labeling, so a route cannot be added without being labeled. The "/"
// catch-all keeps unknown paths inside the middleware too: 404s get the
// error envelope and are counted.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	// The quota middleware wraps only the client-facing routes: health,
	// metrics, and the intra-fleet endpoints (shard stripes, peer cache
	// probes, handoff adoption) must keep working while clients are being
	// throttled, or a throttled fleet could not rebalance or be scraped.
	mux.HandleFunc("/healthz", s.instrument(s.handleHealthz))
	mux.HandleFunc("/metrics", s.instrument(s.handleMetrics))
	mux.HandleFunc("/v1/reconstruct", s.instrument(s.quota(s.handleReconstruct)))
	mux.HandleFunc("/v1/shard/reconstruct", s.instrument(s.handleShardReconstruct))
	mux.HandleFunc("/v1/batch", s.instrument(s.quota(s.handleBatch)))
	mux.HandleFunc("/v1/stream", s.instrument(s.quota(s.handleStreamCreate)))
	mux.HandleFunc("/v1/stream/{id}", s.instrument(s.quota(s.handleStreamByID)))
	mux.HandleFunc("/v1/stream/{id}/shots", s.instrument(s.quota(s.handleStreamShots)))
	mux.HandleFunc("/v1/stream/{id}/handoff", s.instrument(s.handleStreamHandoff))
	mux.HandleFunc("/v1/cache/{key}", s.instrument(s.handleCacheGet))
	mux.HandleFunc("/", s.instrument(s.handleNotFound))
	return mux
}

// handleNotFound is the enveloped 404 for paths matching no route.
func (s *server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, -1, fmt.Errorf("no such endpoint %s", r.URL.Path))
}

// wireConfig is the per-request/per-session "config" override object:
// pointer fields distinguish "absent — inherit the server default" from an
// explicit zero. Workers is deliberately missing — parallelism is the
// server's budget, not a client knob.
type wireConfig struct {
	Radius        *int    `json:"radius"`
	Weights       *string `json:"weights"`
	DisableFilter *bool   `json:"disable_filter"`
	TopM          *int    `json:"topm"`
	Engine        *string `json:"engine"`
}

// apply overlays the override onto the server's base configuration.
func (wc *wireConfig) apply(base hammer.Config) hammer.Config {
	if wc == nil {
		return base
	}
	if wc.Radius != nil {
		base.Radius = *wc.Radius
	}
	if wc.Weights != nil {
		base.Weights = *wc.Weights
	}
	if wc.DisableFilter != nil {
		base.DisableFilter = *wc.DisableFilter
	}
	if wc.TopM != nil {
		base.TopM = *wc.TopM
	}
	if wc.Engine != nil {
		base.Engine = *wc.Engine
	}
	return base
}

// requestOptions maps an optional wire override onto scheduler request
// options: nil stays nil (scheduler defaults, no reconfiguration), an
// override becomes the full facade mapping of base-with-override.
func (s *server) requestOptions(wc *wireConfig) (*core.Options, error) {
	if wc == nil {
		return nil, nil
	}
	opts, err := hammer.SessionOptions(wc.apply(s.base))
	if err != nil {
		return nil, err
	}
	return &opts, nil
}

// reconstructResponse is one reconstruction on the wire, with the metadata a
// monitoring client wants next to the distribution.
type reconstructResponse struct {
	Dist    map[string]float64 `json:"dist"`
	Support int                `json:"support"`
	Engine  string             `json:"engine"`
	Radius  int                `json:"radius"`
}

type batchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

type batchResponse struct {
	Results []reconstructResponse `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Index is the failing request's position in a batch; -1 outside
	// batches.
	Index int `json:"index"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	replicas := 0
	if s.coord != nil {
		replicas = s.coord.NumReplicas()
	}
	health := map[string]any{
		"ok":           true,
		"workers":      s.sch.Workers(),
		"engine":       engineLabel(s.sch.Options().Engine),
		"policy":       s.sch.Policy(),
		"sessions":     s.mgr.Len(),
		"max_sessions": s.mgr.MaxSessions(),
		"replicas":     replicas,
		// Durability: whether sessions survive a restart, how many the
		// running process replayed at startup, and whether a second-level
		// result cache is attached.
		"durable":            s.journal != nil,
		"recovered_sessions": s.recovered,
		"cache_l2":           s.l2 != nil,
		// Fleet: how many peer replicas back the L3 cache tier, and whether
		// per-client quotas are active.
		"peers":               s.peers.NumPeers(),
		"quota_rps":           s.limiter != nil,
		"max_client_sessions": s.mgr.MaxClientSessions(),
	}
	if s.journal != nil {
		health["wal_sync"] = s.journal.Sync().String()
	}
	writeJSON(w, http.StatusOK, health)
}

func (s *server) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	body, ok := readJSONBody(w, r)
	if !ok {
		return
	}
	rr, err := decodeReconstruct(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, -1, err)
		return
	}
	opts, err := s.requestOptions(rr.override)
	if err != nil {
		writeError(w, http.StatusBadRequest, -1, err)
		return
	}
	// Result cache: repeated identical (histogram, options) requests — the
	// QAOA-optimizer pattern — skip reconstruction entirely. The key hashes
	// the decoded canonical histogram and the validated effective options (a
	// deadline never changes the result, so it is not part of the key), so
	// every spelling of one request — bare or {"counts": ...}, any key
	// order or whitespace — shares an entry. Only valid histograms get this
	// far, so every lookup is a real hit or miss. Cached responses are
	// immutable by contract: handlers only marshal them.
	var key string
	if s.cache != nil || s.l2 != nil {
		eff := s.sch.Options()
		if opts != nil {
			eff = *opts
		}
		key = cache.KeySorted(rr.bits, rr.entries, eff)
		if cached, ok := s.cache.Get(key); ok {
			w.Header().Set(engineHeader, cached.Engine)
			w.Header().Set(cacheHeader, cacheHit)
			writeJSONBytes(w, http.StatusOK, cached.Body)
			return
		}
		if s.l2 != nil {
			if raw, ok := s.l2.Get(key); ok {
				if engine, cbody, ok := l2Decode(raw); ok {
					// Promote into L1 so the next identical request skips
					// the disk; the stored bytes are written verbatim, so an
					// L2 hit is byte-identical to the miss that filled it.
					if len(cbody) <= maxCachedResponseBytes {
						s.cache.Put(key, cachedResult{Body: cbody, Engine: engine})
					}
					w.Header().Set(engineHeader, engine)
					w.Header().Set(cacheHeader, cacheHitL2)
					writeJSONBytes(w, http.StatusOK, cbody)
					return
				}
				// An undecodable entry (foreign writer, torn by an external
				// tool) degrades to a miss, which overwrites it below.
			}
		}
		// L3: peer replicas' caches. The keys are replica-portable by
		// construction, so a peer's entry is byte-identical to what this
		// server would have computed; a hit is promoted into L1 and L2 so
		// the next identical request never leaves the process. Strictly
		// best-effort — a dead fleet degrades this to a miss.
		if s.peers != nil {
			if raw, ok := s.peers.Get(key); ok {
				if engine, cbody, ok := l2Decode(raw); ok {
					if len(cbody) <= maxCachedResponseBytes {
						s.cache.Put(key, cachedResult{Body: cbody, Engine: engine})
						if s.l2 != nil {
							s.l2.Put(key, raw)
						}
					}
					w.Header().Set(engineHeader, engine)
					w.Header().Set(cacheHeader, cacheHitPeer)
					writeJSONBytes(w, http.StatusOK, cbody)
					return
				}
			}
		}
	}
	in, err := dist.FromSorted(rr.bits, rr.entries)
	if err != nil {
		writeError(w, http.StatusBadRequest, -1, err)
		return
	}
	var resp reconstructResponse
	served := false
	if s.coord != nil {
		eff := s.sch.Options()
		if opts != nil {
			eff = *opts
		}
		if s.coord.ShouldShard(eff, in.Len(), in.NumBits()) {
			sresp, serr := s.reconstructSharded(r.Context(), eff, in, rr.schedDeadline())
			switch {
			case serr == nil:
				resp, served = sresp, true
			case statusFor(r, serr) != http.StatusBadRequest:
				// Deadline admission rejections (504/429) and client
				// cancellation (499) end the request; any other coordinator
				// failure degrades to the single-node path below.
				writeError(w, statusFor(r, serr), -1, serr)
				return
			}
		}
	}
	if !served {
		err = s.sch.Reconstruct(r.Context(), sched.Request{In: in, Opts: opts, Deadline: rr.schedDeadline()}, func(res *core.Result) error {
			resp = toResponse(res)
			return nil
		})
		if err != nil {
			writeError(w, statusFor(r, err), -1, err)
			return
		}
	}
	w.Header().Set(engineHeader, resp.Engine)
	if key == "" {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// Render once: the same bytes are stored (immutable from here on) and
	// written, so a later hit is byte-identical to this miss.
	body, err = encodeJSON(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, -1, err)
		return
	}
	// Outsized responses (a histogram near the 32 MiB body cap renders to
	// tens of MiB) are served but not stored, or -cache-entries such bodies
	// would bound tens of GiB of memory instead of the documented
	// entries × 1 MiB worst case. The same cap bounds per-entry L2 disk use.
	if len(body) <= maxCachedResponseBytes {
		s.cache.Put(key, cachedResult{Body: body, Engine: resp.Engine})
		if s.l2 != nil {
			s.l2.Put(key, l2Encode(resp.Engine, body))
		}
	}
	w.Header().Set(cacheHeader, cacheMiss)
	writeJSONBytes(w, http.StatusOK, body)
}

// l2Encode frames one second-level cache entry: uvarint engine-name length,
// the engine name, then the rendered response body verbatim.
func l2Encode(engine string, body []byte) []byte {
	out := binary.AppendUvarint(make([]byte, 0, 2+len(engine)+len(body)), uint64(len(engine)))
	out = append(out, engine...)
	return append(out, body...)
}

// l2Decode is l2Encode's inverse; ok=false means the entry is malformed and
// the caller should treat the lookup as a miss.
func l2Decode(raw []byte) (engine string, body []byte, ok bool) {
	n, m := binary.Uvarint(raw)
	if m <= 0 || n > uint64(len(raw)-m) {
		return "", nil, false
	}
	return string(raw[m : m+int(n)]), raw[m+int(n):], true
}

// maxCachedResponseBytes caps one cached response body (~20k outcomes at
// ~50 bytes each); together with -cache-entries it bounds cache memory at
// entries × 1 MiB worst case.
const maxCachedResponseBytes = 1 << 20

// The X-Hammer-Cache response header reports how /v1/reconstruct used the
// result cache; it is absent when caching is disabled (-cache-entries 0) and
// on error responses.
const (
	cacheHeader = "X-Hammer-Cache"
	cacheHit    = "hit"
	cacheHitL2  = "hit-l2"
	cacheMiss   = "miss"
)

// The X-Hammer-Engine response header reports which reconstruction engine
// produced a /v1/reconstruct response — the cost model's pick under the
// default auto selection, or the pinned name. Cache hits report the engine
// that filled the entry.
const engineHeader = "X-Hammer-Engine"

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	body, ok := readJSONBody(w, r)
	if !ok {
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, -1, fmt.Errorf("batch body is not {\"requests\": [...]}: %w", err))
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, -1, fmt.Errorf("empty batch"))
		return
	}
	results := make([]reconstructResponse, len(req.Requests))
	err := s.sch.Batch(r.Context(), len(req.Requests),
		func(i int) (sched.Request, error) {
			rr, err := decodeReconstruct(req.Requests[i])
			if err != nil {
				return sched.Request{}, err
			}
			opts, err := s.requestOptions(rr.override)
			if err != nil {
				return sched.Request{}, err
			}
			d, err := dist.FromSorted(rr.bits, rr.entries)
			return sched.Request{In: d, Opts: opts, Deadline: rr.schedDeadline()}, err
		},
		func(i int, res *core.Result) error {
			results[i] = toResponse(res)
			return nil
		})
	if err != nil {
		writeError(w, statusFor(r, err), failedIndex(err), err)
		return
	}
	writeJSON(w, http.StatusOK, batchResponse{Results: results})
}

// toResponse copies a session-owned result into an independently owned wire
// response; it runs inside the scheduler's consume callbacks, before the
// session is released back to the pool.
func toResponse(res *core.Result) reconstructResponse {
	return reconstructResponse{
		Dist:    dist.ToHistogram(res.Out),
		Support: res.Out.Len(),
		Engine:  res.Engine,
		Radius:  res.Radius,
	}
}

// mediaType returns the request's canonical media type — lowercased, with
// parameters like charset stripped — or "" when the header is absent or
// unparseable. Handlers that branch on the content type use this one parsed
// value, never the raw header.
func mediaType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return ""
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return ""
	}
	return mt
}

// checkContentType enforces the declared request media type: an empty
// Content-Type is accepted (curl's default -d type is not: clients must send
// JSON as JSON), "application/json" always is, and anything else — including
// curl's application/x-www-form-urlencoded — is rejected up front with 415
// so a misdeclared body never reaches a JSON parser. extra lists additional
// acceptable media types (the shots endpoint's "text/plain").
func checkContentType(r *http.Request, extra ...string) error {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return nil
	}
	mt := mediaType(r)
	if mt == "" {
		return fmt.Errorf("unparseable Content-Type %q", ct)
	}
	if mt == "application/json" {
		return nil
	}
	for _, ok := range extra {
		if mt == ok {
			return nil
		}
	}
	return fmt.Errorf("unsupported Content-Type %q (want application/json)", ct)
}

// readJSONBody enforces the content type and drains a size-capped request
// body, writing the error response itself when the request is unacceptable
// (the ok=false path).
func readJSONBody(w http.ResponseWriter, r *http.Request, extraTypes ...string) ([]byte, bool) {
	if err := checkContentType(r, extraTypes...); err != nil {
		writeError(w, http.StatusUnsupportedMediaType, -1, err)
		return nil, false
	}
	// MaxBytesReader gets the unwrapped writer: on an oversized body it
	// marks the connection Connection: close through a private type
	// assertion on exactly the writer it is handed, which the metrics
	// middleware's wrapper would otherwise defeat (it only flags the
	// connection — the 413 envelope is still written through w).
	body, err := io.ReadAll(http.MaxBytesReader(unwrapWriter(w), r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, bodyStatus(err), -1, err)
		return nil, false
	}
	return body, true
}

// unwrapWriter follows Unwrap chains down to the ResponseWriter net/http
// itself handed out.
func unwrapWriter(w http.ResponseWriter) http.ResponseWriter {
	for {
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return w
		}
		w = u.Unwrap()
	}
}

// bodyStatus distinguishes an oversized body (413) from a body that simply
// failed to arrive — client disconnect mid-upload and the like (400).
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusFor maps a reconstruction error to an HTTP status: deadline
// rejections split by kind — 504 when the predicted runtime alone exceeds
// the budget (no amount of retrying helps at this deadline) versus 429 when
// the request was feasible but the queue ate the budget (retry-able once
// load drops) — client cancellation propagates as 499 (nginx's
// client-closed-request — the client is gone either way), and everything
// else is a bad request, since the scheduler's configuration was validated
// at startup and the remaining failures are input-shaped.
func statusFor(r *http.Request, err error) int {
	var de *sched.DeadlineError
	if errors.As(err, &de) {
		if de.Infeasible {
			return http.StatusGatewayTimeout
		}
		return http.StatusTooManyRequests
	}
	if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
		return 499
	}
	return http.StatusBadRequest
}

// failedIndex extracts the failing request's index from a scheduler batch
// error; -1 when the error is not request-scoped.
func failedIndex(err error) int {
	var be *sched.BatchError
	if errors.As(err, &be) {
		return be.Index
	}
	return -1
}

// writeJSON renders and writes v through the same encoder as encodeJSON, so
// a stored-then-replayed response (the cache) and a directly written one are
// byte-identical by construction, not by keeping two encoder configurations
// in sync.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		// Unreachable for the wire types (plain structs and string-keyed
		// maps); keep the envelope shape if a future type breaks that.
		http.Error(w, `{"error": "response encoding failed", "index": -1}`, http.StatusInternalServerError)
		return
	}
	writeJSONBytes(w, status, body)
}

// encodeJSON is the one place a wire response is rendered: indented,
// newline-terminated.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeJSONBytes writes an already rendered JSON body.
func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status, index int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), Index: index})
}
