package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"

	hammer "repro"
	"repro/internal/bitstr"
	"repro/internal/dist"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/wal"
)

// The /v1/stream handlers: live streaming sessions over the serving layer.
// A session is a named, server-held stream.Stream — create it with a
// per-session config, ingest shot batches across many requests, snapshot at
// will, delete it when done. Session access serializes per id through the
// serve.Manager; snapshot reconstruction work runs inside the scheduler's
// shared worker budget so long-lived sessions and one-shot requests cannot
// together oversubscribe the host.

type streamCreateRequest struct {
	// ID optionally names the session; empty draws a random id. Names
	// colliding with a live session are a 409.
	ID string `json:"id"`
	// Width is the outcome width in bits (required, 1..MaxBits).
	Width int `json:"width"`
	// Config optionally overrides the server's base configuration for this
	// session, with the same shape as /v1/reconstruct's "config".
	Config *wireConfig `json:"config"`
	// Client optionally names the owning client for per-client session
	// quotas, overriding the X-Hammer-Client header (and the remote-IP
	// fallback). The owner is journaled with the session, so quotas survive
	// restart and handoff.
	Client string `json:"client"`
}

type streamCreateResponse struct {
	ID    string `json:"id"`
	Width int    `json:"width"`
	// Incremental reports whether snapshots will be served by the
	// incremental engine state (false: each snapshot runs the batch
	// pipeline over the accumulated counts — TopM or a pinned batch
	// engine).
	Incremental bool `json:"incremental"`
	// TTLSeconds is the idle-eviction horizon; non-positive means the
	// session is never evicted.
	TTLSeconds float64 `json:"ttl_seconds"`
}

type streamIngestRequest struct {
	// Shots is a list of bitstring outcomes, one shot each.
	Shots []string `json:"shots"`
	// Counts is a histogram of outcome -> shot count; merged after Shots.
	Counts map[string]int `json:"counts"`
}

type streamIngestResponse struct {
	ID       string `json:"id"`
	Ingested int    `json:"ingested"`
	Shots    int    `json:"shots"`
	Support  int    `json:"support"`
	// Snapshot is present when the request asked for ?snapshot=1: the
	// reconstruction of everything ingested so far, atomic with the ingest.
	Snapshot *streamSnapshotResponse `json:"snapshot,omitempty"`
}

type streamSnapshotResponse struct {
	ID      string             `json:"id"`
	Shots   int                `json:"shots"`
	Support int                `json:"support"`
	Dist    map[string]float64 `json:"dist"`
	Engine  string             `json:"engine"`
	Radius  int                `json:"radius"`
}

type streamDeleteResponse struct {
	ID      string `json:"id"`
	Deleted bool   `json:"deleted"`
}

// streamStatus maps session errors onto status codes: unknown or evicted
// sessions are 404, id collisions and empty-session snapshots 409, the
// session cap 429, a write-ahead-log failure 500 (the server's disk, not the
// client's input); the rest defer to statusFor — 499 when the client
// disconnected while the work ran, 400 for bad input.
func streamStatus(r *http.Request, err error) int {
	switch {
	case errors.Is(err, serve.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrExists), errors.Is(err, errEmptyStream):
		return http.StatusConflict
	case errors.Is(err, serve.ErrFull), errors.Is(err, serve.ErrClientFull):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrJournal):
		return http.StatusInternalServerError
	default:
		return statusFor(r, err)
	}
}

// handleStreamCreate serves POST /v1/stream.
func (s *server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	body, ok := readJSONBody(w, r)
	if !ok {
		return
	}
	var req streamCreateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, -1, fmt.Errorf("create body is not {\"width\": n, ...}: %w", err))
		return
	}
	opts, err := hammer.StreamOptions(req.Config.apply(s.base))
	if err != nil {
		writeError(w, http.StatusBadRequest, -1, err)
		return
	}
	owner := req.Client
	if owner == "" {
		owner = clientID(r)
	}
	if len(owner) > maxClientBytes {
		owner = owner[:maxClientBytes]
	}
	sess, err := s.mgr.CreateOwned(req.ID, owner, req.Width, opts)
	if err != nil {
		if errors.Is(err, serve.ErrClientFull) {
			// The per-client session quota refills only when a session ends;
			// 1 second is the polling floor, not a promise.
			s.metrics.quota.Inc("sessions")
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, streamStatus(r, err), -1, err)
		return
	}
	writeJSON(w, http.StatusCreated, streamCreateResponse{
		ID:          sess.ID(),
		Width:       req.Width,
		Incremental: stream.Incremental(opts),
		TTLSeconds:  s.mgr.TTL().Seconds(),
	})
}

// handleStreamByID serves /v1/stream/{id}: GET snapshot, DELETE.
func (s *server) handleStreamByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		s.streamSnapshot(w, r, id)
	case http.MethodDelete:
		s.streamDelete(w, r, id)
	default:
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// handleStreamShots serves POST /v1/stream/{id}/shots.
func (s *server) handleStreamShots(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	s.streamIngest(w, r, r.PathValue("id"))
}

// snapshotLocked reconstructs a held session and formats the response.
// Callers hold both the session (via Manager.Do) and a scheduler worker
// slot: once the slot is held, a snapshot of a non-empty session cannot
// fail (Stream.Snapshot takes no context and the options were validated at
// session creation).
func snapshotLocked(id string, st *stream.Stream) (*streamSnapshotResponse, error) {
	res, err := st.Snapshot()
	if err != nil {
		return nil, err
	}
	return &streamSnapshotResponse{
		ID:      id,
		Shots:   st.Shots(),
		Support: st.Support(),
		Dist:    dist.ToHistogram(res.Out),
		Engine:  res.Engine,
		Radius:  res.Radius,
	}, nil
}

// errEmptyStream keeps the "session exists but has nothing to reconstruct
// yet" failure (409) distinguishable from bad input.
var errEmptyStream = errors.New("snapshot of empty session (no shots ingested)")

func (s *server) streamSnapshot(w http.ResponseWriter, r *http.Request, id string) {
	var resp *streamSnapshotResponse
	err := s.mgr.Do(id, func(st *stream.Stream) error {
		if st.Shots() == 0 {
			return errEmptyStream
		}
		return s.sch.Do(r.Context(), func() error {
			var err error
			resp, err = snapshotLocked(id, st)
			return err
		})
	})
	if err != nil {
		writeError(w, streamStatus(r, err), -1, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) streamDelete(w http.ResponseWriter, r *http.Request, id string) {
	if err := s.mgr.Delete(id); err != nil {
		writeError(w, streamStatus(r, err), -1, err)
		return
	}
	writeJSON(w, http.StatusOK, streamDeleteResponse{ID: id, Deleted: true})
}

// shotEntry is one parsed ingest item before width validation.
type shotEntry struct {
	shot string
	k    int
}

// parseIngestBody decodes an ingest body by its canonical media type (as
// mediaType parsed it, so "Text/Plain; charset=utf-8" dispatches the same
// as "text/plain"): text/plain is the CLI's line format ("BITSTRING" or
// "BITSTRING COUNT", #-comments and blanks skipped), anything else the JSON
// {"shots": [...], "counts": {...}} object.
func parseIngestBody(mt string, body []byte) ([]shotEntry, error) {
	if mt == "text/plain" {
		var entries []shotEntry
		for lineNo, line := range strings.Split(string(body), "\n") {
			shot, k, ok, err := parseShotLine(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
			}
			if ok {
				entries = append(entries, shotEntry{shot, k})
			}
		}
		return entries, nil
	}
	var req streamIngestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("ingest body is not {\"shots\": [...]} / {\"counts\": {...}}: %w", err)
	}
	entries := make([]shotEntry, 0, len(req.Shots)+len(req.Counts))
	for _, shot := range req.Shots {
		entries = append(entries, shotEntry{shot, 1})
	}
	// Deterministic merge order for the counts map (ingest order does not
	// change the accumulated histogram, but error messages should be
	// stable).
	keys := make([]string, 0, len(req.Counts))
	for key := range req.Counts {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		entries = append(entries, shotEntry{key, req.Counts[key]})
	}
	return entries, nil
}

// validateIngest checks a parsed ingest batch against a session of width n
// that already holds shots shots: every shot must be n bits wide, every
// count positive, and the batch must not take the session past
// stream.MaxShots. It returns the parsed outcomes and the batch's shot
// total. The sum is checked against the room left before each addition, so
// it cannot overflow however large the counts.
func validateIngest(entries []shotEntry, n, shots int) ([]bitstr.Bits, int, error) {
	parsed := make([]bitstr.Bits, len(entries))
	total := 0
	for i, e := range entries {
		if len(e.shot) != n {
			return nil, 0, fmt.Errorf("shot %q has %d bits, session has %d", e.shot, len(e.shot), n)
		}
		x, err := bitstr.Parse(e.shot)
		if err != nil {
			return nil, 0, err
		}
		if e.k <= 0 {
			return nil, 0, fmt.Errorf("non-positive shot count %d for %q", e.k, e.shot)
		}
		if e.k > stream.MaxShots-shots-total {
			return nil, 0, fmt.Errorf("batch would take the session (%d shots) past %d shots", shots, stream.MaxShots)
		}
		parsed[i] = x
		total += e.k
	}
	return parsed, total, nil
}

func (s *server) streamIngest(w http.ResponseWriter, r *http.Request, id string) {
	body, ok := readJSONBody(w, r, "text/plain")
	if !ok {
		return
	}
	entries, err := parseIngestBody(mediaType(r), body)
	if err != nil {
		writeError(w, http.StatusBadRequest, -1, err)
		return
	}
	if len(entries) == 0 {
		writeError(w, http.StatusBadRequest, -1, fmt.Errorf("empty ingest (no shots)"))
		return
	}
	q := r.URL.Query().Get("snapshot")
	wantSnapshot := q == "1" || q == "true"
	var resp streamIngestResponse
	err = s.mgr.DoSession(id, func(sess *serve.Session) error {
		st := sess.Stream()
		ingest := func() error {
			// Validate the whole batch before ingesting any of it, so a
			// bad entry cannot leave the session half-updated.
			parsed, total, err := validateIngest(entries, st.NumBits(), st.Shots())
			if err != nil {
				return err
			}
			for i, e := range entries {
				if err := st.IngestN(parsed[i], e.k); err != nil {
					return err
				}
			}
			// Journal the acknowledged batch before acknowledging it: a
			// Record failure turns the response into a 500, so a 200 always
			// means the shots are as durable as -wal-sync promises.
			pairs := make([]wal.Pair, len(entries))
			for i, e := range entries {
				pairs[i] = wal.Pair{X: parsed[i], K: e.k}
			}
			if err := sess.Record(pairs); err != nil {
				return err
			}
			resp = streamIngestResponse{ID: id, Ingested: total, Shots: st.Shots(), Support: st.Support()}
			if wantSnapshot {
				snap, err := snapshotLocked(id, st)
				if err != nil {
					return err
				}
				resp.Snapshot = snap
			}
			return nil
		}
		if !wantSnapshot {
			return ingest()
		}
		// With ?snapshot=1 the scheduler slot is acquired BEFORE any shot
		// lands: the slot wait is the only fallible step left (client
		// disconnect), so a non-200 response always means the session
		// histogram is untouched — the documented all-or-nothing contract.
		return s.sch.Do(r.Context(), ingest)
	})
	if err != nil {
		writeError(w, streamStatus(r, err), -1, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
