// Command hammerbench is the repository's end-to-end benchmark of
// `hammerctl serve`. It starts the server as its own process on loopback,
// drives one of three closed-loop workloads at it from a single load
// generator, reads the server's CPU time and peak memory from /proc, and
// checks every answer. With -trace 1 it also replays the workload's request
// sequence in-process through the layers the handlers call, recording spans,
// and reports per-layer self times.
//
// Usage (from the repository root, after building hammerctl):
//
//	hammerbench -hammerctl PATH -workload NAME -seed N -seconds S -trace 0|1
//
// hammerbench/run.sh builds both binaries and runs it. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"context"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run against the real server.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced run. Layers a workload never calls
// read 0 on it.
var perLayer = []metricDef{
	{"wire.decode_ms", "ms"},
	{"wire.render_ms", "ms"},
	{"wire.residual_ms", "ms"},
	{"cache.key_ms", "ms"},
	{"cache.l1_get_us", "us"},
	{"cache.l2_put_ms", "ms"},
	{"cache.hit_frac", "ratio"},
	{"cache.evictions", "count"},
	{"dist.from_histogram_ms", "ms"},
	{"dist.index_build_ms", "ms"},
	{"dist.to_histogram_ms", "ms"},
	{"core.reconstruct_ms", "ms"},
	{"core.ns_per_pair", "ns/pair"},
	{"cost.pred_ratio", "ratio"},
	{"sched.wait_ms", "ms"},
	{"sched.run_ms", "ms"},
	{"stream.ingest_us", "us"},
	{"stream.snapshot_ms", "ms"},
	{"serve.record_us", "us"},
	{"serve.recover_ms", "ms"},
	{"wal.append_us", "us"},
	{"wal.compact_ms", "ms"},
	{"wal.compactions", "count"},
	{"wal.replay_ms", "ms"},
	{"wal.bytes_per_shot", "B/shot"},
	{"trace.overhead_frac", "ratio"},
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	hammerctl string
	work      string
	smoke     bool
	// corrupt flips one digit in every timed and verification response the
	// load generator reads, to prove the checks catch a wrong answer.
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hammerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same requests")
	fs.Float64Var(&o.seconds, "seconds", 10, "nominal timed-window length; fixes the request count")
	fs.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from a traced in-process replay")
	fs.StringVar(&o.hammerctl, "hammerctl", "", "path to the hammerctl binary under test")
	fs.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for server data and spans")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs, for the benchmark's own test")
	fs.BoolVar(&o.corrupt, "corrupt", false, "corrupt responses on read (checks the checks)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := bench(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "hammerbench: %v\n", err)
		return 1
	}
	b, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		fmt.Fprintln(stderr, "hammerbench: wrong answers (see the lines above)")
		return 1
	}
	return 0
}

// e2e is one untraced run against the real server.
type e2e struct {
	setups   []float64 // seconds
	win      *window
	hits     int64
	cpu      time.Duration
	rss      int64
	before   metricsSnapshot
	after    metricsSnapshot
	steal    float64
	wrong    []error // answer checks after the window
	walBytes int64
}

func bench(ctx context.Context, o options, stdout io.Writer) (*result, error) {
	if o.hammerctl == "" {
		return nil, errors.New("-hammerctl is required")
	}
	if _, err := os.Stat(o.hammerctl); err != nil {
		return nil, fmt.Errorf("hammerctl binary: %w", err)
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	work, err := filepath.Abs(filepath.Join(o.work, o.workload))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	sp, err := newSpec(o.workload, o.seed, size{smoke: o.smoke, seconds: o.seconds}, work)
	if err != nil {
		return nil, err
	}
	run, err := runE2E(ctx, sp, o)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(sp.calls), Failed: run.win.numFailed() + len(run.wrong), Metrics: map[string]metric{}}
	var problems []string
	problems = append(problems, run.win.reasons...)
	for _, e := range run.wrong {
		problems = append(problems, e.Error())
	}
	hitFrac := float64(run.hits) / float64(len(sp.calls))
	if hitFrac != sp.hitWant {
		problems = append(problems, fmt.Sprintf("cache.hit_frac %.4f, the workload needs %.0f", hitFrac, sp.hitWant))
	}
	compactions := run.after.diff(run.before, "hammer_wal_compactions_total")
	if sp.dataDir != "" && compactions < 1 {
		problems = append(problems, "live-shots recorded no journal compaction in the window")
	}
	res.Correct = len(problems) == 0
	ok := run.win.ok()
	fact := hostFacts(o.hammerctl)
	fact["steal_frac"] = run.steal
	// error_frac is failed over attempted, as the result object's own
	// fields give it; it is 0 on a healthy run, so it cannot carry a bound
	// relative to its median and is recorded here rather than gated.
	fact["error_frac"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	fact["workload"] = sp.name
	fact["requests"] = len(sp.calls)
	fact["clients"] = sp.clients
	fact["window_s"] = run.win.elapsed.Seconds()
	fact["inputs"] = sp.inputs
	for _, p := range problems {
		fmt.Fprintf(stdout, "problem: %s\n", p)
	}
	if o.trace == 0 {
		res.Metrics["setup_s"] = metric{median(run.setups), "s"}
		res.Metrics["throughput_rps"] = metric{float64(len(ok)) / run.win.elapsed.Seconds(), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{percentileMS(ok, 0.50), "ms"}
		res.Metrics["latency_p90_ms"] = metric{percentileMS(ok, 0.90), "ms"}
		res.Metrics["cpu_ms_per_req"] = metric{float64(run.cpu) / 1e6 / float64(max(1, len(ok))), "ms"}
		res.Metrics["peak_rss_mb"] = metric{float64(run.rss) / 1e6, "MB"}
	} else {
		layers, err := traceLayers(sp, run, hitFrac, compactions, work, o)
		if err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{layers[d.name], d.unit}
		}
	}
	b, _ := json.Marshal(fact)
	fmt.Fprintf(stdout, "host: %s\n", b)
	return res, nil
}

// runE2E primes (live-shots), sets the server up sp.setups times, and runs
// the timed window against the last set-up.
func runE2E(ctx context.Context, sp *spec, o options) (*e2e, error) {
	if sp.prime != nil {
		s, err := startServer(ctx, o.hammerctl, sp.flags(-1))
		if err != nil {
			return nil, err
		}
		c := newClient(s.base)
		err = sp.prime(c)
		c.close()
		s.stop()
		if err != nil {
			return nil, fmt.Errorf("first server generation: %w", err)
		}
	}
	run := &e2e{}
	var srv *server
	defer func() { srv.stop() }()
	for g := 0; g < sp.setups; g++ {
		t0 := time.Now()
		s, err := startServer(ctx, o.hammerctl, sp.flags(g))
		if err != nil {
			return nil, err
		}
		if sp.warmup != nil {
			c := newClient(s.base)
			err = sp.warmup(c)
			c.close()
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("set-up %d: %w", g, err)
		}
		if g < sp.setups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	var err error
	if run.before, err = scrapeMetrics(srv.base); err != nil {
		return nil, err
	}
	check := func(i int, r reply) error {
		if r.cache == "hit" {
			atomic.AddInt64(&run.hits, 1)
		}
		return sp.check(i, r)
	}
	// The load generator's garbage collector stays off for the window, so
	// it does not compete with the server for the host's CPUs; the inputs
	// are already built and the window allocates little.
	gc := debug.SetGCPercent(-1)
	h0, err1 := readHostCPU()
	c0, err2 := cpuTime(srv.pid())
	run.win = runWindow(srv.base, sp.calls, sp.perClient, check, o.corrupt)
	c1, err3 := cpuTime(srv.pid())
	h1, err4 := readHostCPU()
	debug.SetGCPercent(gc)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return nil, err
	}
	run.cpu, run.steal = c1-c0, stealFrac(h0, h1)
	if run.after, err = scrapeMetrics(srv.base); err != nil {
		return nil, err
	}
	if run.rss, err = peakRSS(srv.pid()); err != nil {
		return nil, err
	}
	c := newClient(srv.base)
	c.corrupt = o.corrupt
	run.wrong = sp.verify(c)
	c.close()
	if sp.dataDir != "" {
		if run.walBytes, err = dirBytes(sp.dataDir); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// traceLayers runs the untraced and traced in-process replays and derives
// every per-layer metric.
func traceLayers(sp *spec, run *e2e, hitFrac, compactions float64, work string, o options) (map[string]float64, error) {
	// The first untraced replay only warms the process up; the second is
	// the baseline the tracing overhead is measured against.
	var base *replayStats
	for i := 0; i < 2; i++ {
		var err error
		runtime.GC()
		if base, err = sp.replay(nil); err != nil {
			return nil, fmt.Errorf("untraced replay: %w", err)
		}
	}
	tr := newTracer()
	runtime.GC()
	traced, err := sp.replay(tr)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	spans := filepath.Join(filepath.Dir(work), fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, o.seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	self := tr.selfTimes()
	perReq := func(name string, scale float64) float64 {
		var xs []float64
		for _, d := range self[name] {
			xs = append(xs, d.Seconds()*scale)
		}
		return median(xs)
	}
	m := map[string]float64{}
	for _, d := range perLayer {
		// Span names are the metric names up to the unit suffix.
		i := strings.LastIndexByte(d.name, '_')
		if i < 0 {
			continue
		}
		span, unit := d.name[:i], d.name[i+1:]
		switch unit {
		case "ms":
			m[d.name] = perReq(span, 1e3)
		case "us":
			m[d.name] = perReq(span, 1e6)
		}
	}
	recon := self["core.reconstruct"]
	var nsPerPair, predRatio []float64
	for _, r := range traced.recon {
		d, ok := recon[r.req]
		if !ok || d <= 0 {
			continue
		}
		if r.pairs > 0 {
			nsPerPair = append(nsPerPair, float64(d.Nanoseconds())/float64(r.pairs))
		}
		if r.predicted > 0 {
			predRatio = append(predRatio, float64(r.predicted)/float64(d))
		}
	}
	m["core.ns_per_pair"] = median(nsPerPair)
	m["cost.pred_ratio"] = median(predRatio)
	ok := run.win.ok()
	var sum time.Duration
	for _, l := range ok {
		sum += l
	}
	httpMean := sum / time.Duration(max(1, len(ok)))
	m["wire.residual_ms"] = float64(httpMean-traced.requestMean) / 1e6
	m["cache.hit_frac"] = hitFrac
	m["cache.evictions"] = run.after.diff(run.before, "hammer_cache_evictions_total")
	m["sched.wait_ms"] = meanMS(run.before, run.after, "hammer_sched_wait_seconds")
	m["sched.run_ms"] = meanMS(run.before, run.after, "hammer_sched_run_seconds")
	m["wal.compactions"] = compactions
	if sp.shots > 0 {
		m["wal.bytes_per_shot"] = float64(run.walBytes) / float64(sp.shots)
	}
	m["trace.overhead_frac"] = float64(traced.requestMean)/float64(base.requestMean) - 1
	return m, nil
}

// percentileMS is the nearest-rank q-quantile of the latencies, in ms.
func percentileMS(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999) - 1
	k = min(max(k, 0), len(s)-1)
	return float64(s[k]) / 1e6
}

// hostFacts are recorded with every run so an unsteady one can be
// explained; nothing is gated on them.
func hostFacts(bin string) map[string]any {
	f := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goamd64":    "",
		"commit":     gitCommit(),
	}
	if bi, err := buildinfo.ReadFile(bin); err == nil {
		f["go"] = bi.GoVersion
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				f["goamd64"] = s.Value
			}
		}
	}
	return f
}

// gitCommit reads HEAD from the working directory's .git, or "unknown"
// outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}
