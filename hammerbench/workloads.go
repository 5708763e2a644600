package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	hammer "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
)

// spec is one workload: its pre-encoded request sequence, the server flags
// it runs under, its set-up, and the checks on its answers.
type spec struct {
	name    string
	clients int
	// flags returns the server flags (beyond -addr) for set-up generation g.
	flags func(g int) []string
	// prime, when set, runs against an untimed first server generation
	// before any timed set-up (live-shots writes its journal there).
	prime func(c *client) error
	// warmup runs after each set-up's first healthy /healthz and counts
	// toward setup_s.
	warmup func(c *client) error
	// setups is how many times a run sets the server up: setup_s is their
	// median, and the last one serves the timed window. Cheap set-ups are
	// repeated more, to steady the median.
	setups int
	// calls is the timed sequence; perClient[i] lists client i's calls in
	// sending order.
	calls     []call
	perClient [][]int
	// check runs on every timed reply, inside the window; it must be cheap.
	check func(i int, r reply) error
	// verify runs after the window and returns one error per wrong answer.
	verify func(c *client) []error
	// replay feeds a prefix of the same sequence through the layers
	// in-process, in the handlers' order (trace.go).
	replay func(tr *tracer) (*replayStats, error)
	// hitWant is the X-Hammer-Cache hit share the workload must show.
	hitWant float64
	// dataDir is the server's journal directory (live-shots only).
	dataDir string
	// shots is the total number of shots the sessions hold after the window
	// (live-shots only).
	shots int
	// inputs describes the timed requests' sizes, for the run's record.
	inputs inputRange
}

// inputRange is the spread of sizes over a workload's timed requests.
type inputRange struct {
	QubitsMin  int `json:"qubits_min"`
	QubitsMax  int `json:"qubits_max"`
	SupportMin int `json:"support_min"`
	SupportMax int `json:"support_max"`
	Shots      int `json:"shots_per_request"`
}

// note widens the range to cover one request.
func (r *inputRange) note(qubits, support, shots int) {
	if r.Shots == 0 {
		*r = inputRange{qubits, qubits, support, support, shots}
	}
	r.QubitsMin, r.QubitsMax = min(r.QubitsMin, qubits), max(r.QubitsMax, qubits)
	r.SupportMin, r.SupportMax = min(r.SupportMin, support), max(r.SupportMax, support)
}

// size scales a workload: full-size for measurement, tiny for the smoke
// test.
type size struct {
	smoke   bool
	seconds float64
}

// suiteSeed fixes the benchmark's circuits (graphs, BV secrets, noise
// realizations), as the paper's suite is fixed; --seed draws the shots and
// the request order. Seeds then differ in their histograms, not in how
// large or hard the circuits are.
const suiteSeed = 2022

// requests is the fixed length of a workload's timed sequence: its nominal
// rate on a 2-CPU host times the run's seconds, so a run does the same work
// whatever the host's speed that day.
func (z size) requests(nominalRPS float64) int {
	if z.smoke {
		// Enough batches for live-shots to compact its logs at least once.
		return 48
	}
	n := int(nominalRPS * z.seconds)
	if n < 20 {
		n = 20
	}
	return n
}

var workloadNames = []string{"optimizer-loop", "fresh-circuits", "live-shots"}

func newSpec(name string, seed int64, z size, work string) (*spec, error) {
	switch name {
	case "optimizer-loop":
		return optimizerLoop(seed, z), nil
	case "fresh-circuits":
		return freshCircuits(seed, z, work), nil
	case "live-shots":
		return liveShots(seed, z, work), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// serverDefaults is the configuration hammerctl's flag defaults give.
var serverDefaults = hammer.Config{Weights: "inverse-chs", Engine: core.EngineAuto}

// defaultOptions are the per-request options of a server run with default
// flags, mapped as the server maps them.
func defaultOptions() core.Options {
	opts, err := hammer.SessionOptions(serverDefaults)
	if err != nil {
		panic(err) // constant, valid configuration
	}
	return opts
}

// permutations returns n indices into [0, k): seeded shuffles of 0..k-1
// laid end to end, so every element recurs evenly.
func permutations(rng *rand.Rand, k, n int) []int {
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

// optimizerLoop is the landscape/optimizer re-evaluation pattern: one client
// re-sends a small working set of QAOA histograms, so after the warm-up pass
// fills L1 every timed request is a cache hit.
func optimizerLoop(seed int64, z size) *spec {
	minQ, maxQ, samples := 12, 16, 2
	if z.smoke {
		minQ, maxQ, samples = 6, 8, 1
	}
	sp := &spec{name: "optimizer-loop", clients: 1, hitWant: 1, setups: 5,
		flags: func(int) []string { return nil }}
	rng := rand.New(rand.NewSource(seed))
	var set []call
	var hists []map[string]int
	for _, c := range execute(qaoaSuite(suiteSeed, minQ, maxQ, false), minQ, maxQ) {
		for s := 0; s < samples; s++ {
			h := wireCounts(c.noisy.Sample(rng, shotsPerHistogram))
			sp.inputs.note(c.qubits, len(h), shotsPerHistogram)
			hists = append(hists, h)
			set = append(set, call{method: http.MethodPost, path: "/v1/reconstruct", body: mustJSON(h)})
		}
	}
	order := permutations(rng, len(set), z.requests(110))
	ref := make([][]byte, len(set))
	sp.warmup = func(c *client) error {
		for i, k := range set {
			r, err := c.do(k)
			if err == nil {
				err = expect(r, http.StatusOK, "miss")
			}
			if err != nil {
				return fmt.Errorf("warm-up %d: %w", i, err)
			}
			// The last set-up's server serves the window, so its misses
			// are the bodies every hit must reproduce.
			ref[i] = bytes.Clone(r.body)
		}
		return nil
	}
	for _, j := range order {
		sp.calls = append(sp.calls, set[j])
	}
	sp.perClient = [][]int{seq(len(order))}
	sp.check = func(i int, r reply) error {
		if err := expect(r, http.StatusOK, "hit"); err != nil {
			return err
		}
		if !bytes.Equal(r.body, ref[order[i]]) {
			return errors.New("hit is not byte-identical to the miss that filled it")
		}
		return nil
	}
	sp.verify = func(*client) []error { return nil }
	sp.replay = func(tr *tracer) (*replayStats, error) {
		return replayReconstruct(tr, hists, order[:replayLen(len(order))], "", true)
	}
	return sp
}

// freshCircuits sends never-seen histograms from a mixed BV and QAOA suite:
// every request is a miss that reconstructs, then writes L1 and L2.
func freshCircuits(seed int64, z size, work string) *spec {
	var circuits []circuit
	if z.smoke {
		circuits = append(execute(perWidth(dataset.BVSuite(suiteSeed, 6).Instances, 1), 5, 6),
			execute(qaoaSuite(suiteSeed, 6, 6, true), 6, 6)...)
	} else {
		circuits = append(execute(perWidth(dataset.BVSuite(suiteSeed, 15).Instances, 2), 10, 15),
			execute(qaoaSuite(suiteSeed, 10, 14, true), 10, 14)...)
	}
	rng := rand.New(rand.NewSource(seed))
	fresh := func(c circuit, i int) map[string]int {
		// One shot sample per request, seeded by its position, so no two
		// requests carry the same histogram.
		return wireCounts(c.noisy.Sample(rand.New(rand.NewSource(seed*1_000_003+int64(i))), shotsPerHistogram))
	}
	// The warm-up circuits sit at fixed places in the suite, so every seed
	// warms up on the same kinds and widths.
	var warm []call
	for i, j := range []int{0, len(circuits) / 3, 2 * len(circuits) / 3, len(circuits) - 1} {
		h := fresh(circuits[j], -1-i)
		warm = append(warm, call{method: http.MethodPost, path: "/v1/reconstruct", body: mustJSON(h)})
	}
	n := z.requests(25)
	order := permutations(rng, len(circuits), n)
	// A seeded sample of the timed responses is checked against the exact
	// engine after the window.
	sampled := map[int]map[string]int{}
	for len(sampled) < min(6, n) {
		sampled[rng.Intn(n)] = nil
	}
	sp := &spec{name: "fresh-circuits", clients: 2, setups: 7}
	var replayHists []map[string]int
	for i, j := range order {
		h := fresh(circuits[j], i)
		sp.inputs.note(circuits[j].qubits, len(h), shotsPerHistogram)
		if _, ok := sampled[i]; ok {
			sampled[i] = h
		}
		if i < replayLen(n) {
			replayHists = append(replayHists, h)
		}
		sp.calls = append(sp.calls, call{method: http.MethodPost, path: "/v1/reconstruct", body: mustJSON(h)})
	}
	cacheDir := func(g int) string { return filepath.Join(work, fmt.Sprintf("l2-%d", g)) }
	sp.flags = func(g int) []string {
		return []string{"-workers", "1", "-cache-dir", cacheDir(g)}
	}
	sp.warmup = func(c *client) error {
		for i, k := range warm {
			r, err := c.do(k)
			if err == nil {
				err = expect(r, http.StatusOK, "miss")
			}
			if err != nil {
				return fmt.Errorf("warm-up %d: %w", i, err)
			}
		}
		return nil
	}
	sp.perClient = [][]int{nil, nil}
	for i := range sp.calls {
		sp.perClient[i%2] = append(sp.perClient[i%2], i)
	}
	var mu sync.Mutex
	bodies := map[int][]byte{}
	sp.check = func(i int, r reply) error {
		if err := expect(r, http.StatusOK, "miss"); err != nil {
			return err
		}
		if _, ok := sampled[i]; ok {
			mu.Lock()
			bodies[i] = bytes.Clone(r.body)
			mu.Unlock()
		}
		return nil
	}
	sp.verify = func(*client) []error {
		var errs []error
		for i, h := range sampled {
			body, ok := bodies[i]
			if !ok {
				continue // the call failed and is already counted
			}
			var got reconstructReply
			if err := json.Unmarshal(body, &got); err != nil {
				errs = append(errs, fmt.Errorf("call %d: %w", i, err))
				continue
			}
			want, err := exactDist(h)
			if err == nil {
				err = sameDist(got.Dist, want)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("call %d vs exact engine: %w", i, err))
			}
		}
		return errs
	}
	sp.replay = func(tr *tracer) (*replayStats, error) {
		l2 := filepath.Join(work, "trace-l2")
		if err := os.RemoveAll(l2); err != nil {
			return nil, err
		}
		return replayReconstruct(tr, replayHists, seq(len(replayHists)), l2, false)
	}
	return sp
}

// liveShots streams fixed-size shot batches into durable sessions, each
// with ?snapshot=1, over a journal an untimed first generation wrote.
func liveShots(seed int64, z size, work string) *spec {
	// Eight sessions: enough journal for its replay, not process start, to
	// dominate set-up.
	width, sk, prefill, batch := 10, true, 4, 512
	if z.smoke {
		width, sk, prefill, batch = 6, false, 1, 64
	}
	var insts []*dataset.Instance
	insts = append(insts, qaoaSuite(suiteSeed, width, width, sk)...)
	insts = append(insts, qaoaSuite(suiteSeed+1, width, width, sk)...)
	insts = append(insts, perWidth(dataset.BVSuite(suiteSeed, width).Instances, 4)...)
	circuits := execute(insts, width, width)[:8]
	rng := rand.New(rand.NewSource(seed))
	total := make([]map[string]int, len(circuits))
	var creates, fills []call
	var pre []ingest
	for s, c := range circuits {
		total[s] = map[string]int{}
		creates = append(creates, call{method: http.MethodPost, path: "/v1/stream",
			body: mustJSON(map[string]any{"id": sessionID(s), "width": c.qubits})})
		for p := 0; p < prefill; p++ {
			h := wireCounts(c.noisy.Sample(rng, shotsPerHistogram))
			addCounts(total[s], h)
			pre = append(pre, ingest{session: s, counts: h})
			fills = append(fills, call{method: http.MethodPost, path: "/v1/stream/" + sessionID(s) + "/shots",
				body: mustJSON(map[string]any{"counts": h})})
		}
	}
	dataDir := filepath.Join(work, "data")
	sp := &spec{name: "live-shots", clients: 2, dataDir: dataDir, setups: 11,
		flags: func(int) []string {
			return []string{"-workers", "1", "-data", dataDir, "-wal-sync", "never"}
		}}
	sp.prime = func(c *client) error {
		for _, k := range creates {
			if _, err := c.mustDo(k, http.StatusCreated); err != nil {
				return err
			}
		}
		for _, k := range fills {
			if _, err := c.mustDo(k, http.StatusOK); err != nil {
				return err
			}
		}
		return nil
	}
	// Client i owns the sessions s with s%2 == i and cycles through them.
	n := z.requests(70)
	sp.perClient = [][]int{nil, nil}
	var replayBatches []ingest
	for i := 0; i < n; i++ {
		ci := i % 2
		s := ci + 2*((i/2)%(len(circuits)/2))
		h := wireCounts(circuits[s].noisy.Sample(rng, batch))
		sp.inputs.note(circuits[s].qubits, len(h), batch)
		addCounts(total[s], h)
		sp.perClient[ci] = append(sp.perClient[ci], i)
		sp.calls = append(sp.calls, call{method: http.MethodPost, path: "/v1/stream/" + sessionID(s) + "/shots?snapshot=1",
			body: mustJSON(map[string]any{"counts": h})})
		if i < replayLen(n) {
			replayBatches = append(replayBatches, ingest{session: s, counts: h})
		}
	}
	for s := range total {
		for _, k := range total[s] {
			sp.shots += k
		}
	}
	sp.check = func(_ int, r reply) error { return expect(r, http.StatusOK, "") }
	sp.verify = func(c *client) []error {
		var errs []error
		for s := range circuits {
			if err := verifySession(c, sessionID(s), total[s]); err != nil {
				errs = append(errs, fmt.Errorf("session %s: %w", sessionID(s), err))
			}
		}
		return errs
	}
	sp.replay = func(tr *tracer) (*replayStats, error) {
		dir := filepath.Join(work, "trace-data")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		widths := make([]int, len(circuits))
		for s, c := range circuits {
			widths[s] = c.qubits
		}
		return replayStream(tr, dir, widths, pre, replayBatches)
	}
	return sp
}

// seq is 0..n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// reconstructReply is the part of a /v1/reconstruct response the checks
// read.
type reconstructReply struct {
	Dist    map[string]float64 `json:"dist"`
	Support int                `json:"support"`
}

// verifySession checks a live session's final snapshot against
// /v1/reconstruct on the counts the benchmark sent it.
func verifySession(c *client, id string, counts map[string]int) error {
	raw, err := c.mustDo(call{method: http.MethodGet, path: "/v1/stream/" + id}, http.StatusOK)
	if err != nil {
		return err
	}
	var snap struct {
		Shots int                `json:"shots"`
		Dist  map[string]float64 `json:"dist"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return err
	}
	shots := 0
	for _, k := range counts {
		shots += k
	}
	if snap.Shots != shots {
		return fmt.Errorf("snapshot holds %d shots, %d were sent", snap.Shots, shots)
	}
	// The reference answer is read as sent: -corrupt tests the check on the
	// snapshot, not on both sides of it.
	corrupt := c.corrupt
	c.corrupt = false
	raw, err = c.mustDo(call{method: http.MethodPost, path: "/v1/reconstruct", body: mustJSON(counts)}, http.StatusOK)
	c.corrupt = corrupt
	if err != nil {
		return err
	}
	var want reconstructReply
	if err := json.Unmarshal(raw, &want); err != nil {
		return err
	}
	return sameDist(snap.Dist, want.Dist)
}

// exactDist reconstructs counts in-process with the exact reference engine.
func exactDist(counts map[string]int) (map[string]float64, error) {
	in, _, err := dist.FromHistogram(floatHistogram(counts))
	if err != nil {
		return nil, err
	}
	opts := defaultOptions()
	opts.Engine = core.EngineExact
	sess, err := core.NewSession(opts)
	if err != nil {
		return nil, err
	}
	res, err := sess.Reconstruct(context.Background(), in)
	if err != nil {
		return nil, err
	}
	return dist.ToHistogram(res.Out), nil
}

// answerTol is the cross-engine agreement the repository's goldens pin.
const answerTol = 1e-12

// sameDist checks two wire distributions agree outcome by outcome.
func sameDist(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("support %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("outcome %s missing", k)
		}
		if math.Abs(g-w) > answerTol {
			return fmt.Errorf("outcome %s: %.17g, want %.17g", k, g, w)
		}
	}
	return nil
}
