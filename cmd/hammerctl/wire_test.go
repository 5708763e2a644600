package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bitstr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
)

// referenceRequest is what the encoding/json decoder the wire decoder
// replaced produced: a string-keyed map, the override, the deadline.
type referenceRequest struct {
	counts   map[string]float64
	override *wireConfig
	deadline time.Duration
}

// decodeReference is the reference decoder: the bare map is tried first,
// then the {"counts", "config", "deadline_ms"} wrapper, both through
// encoding/json. Validation then happens in dist.FromHistogram.
func decodeReference(body []byte) (*referenceRequest, error) {
	var bare map[string]float64
	bareErr := json.Unmarshal(body, &bare)
	if bareErr == nil {
		return &referenceRequest{counts: bare}, nil
	}
	var wrapped struct {
		Counts     map[string]float64 `json:"counts"`
		Config     *wireConfig        `json:"config"`
		DeadlineMS int64              `json:"deadline_ms"`
	}
	if err := json.Unmarshal(body, &wrapped); err == nil && len(wrapped.Counts) > 0 {
		if wrapped.DeadlineMS < 0 {
			return nil, fmt.Errorf("deadline_ms must be non-negative, got %d", wrapped.DeadlineMS)
		}
		return &referenceRequest{
			counts:   wrapped.Counts,
			override: wrapped.Config,
			deadline: time.Duration(wrapped.DeadlineMS) * time.Millisecond,
		}, nil
	}
	return nil, fmt.Errorf("neither form: %w", bareErr)
}

// fromHistogramReference is dist.FromHistogram as it was before the
// canonical form existed: validate the map's keys and masses, add the
// entries to a fresh Dist in ascending outcome order, normalize.
func fromHistogramReference(histogram map[string]float64) (*dist.Dist, error) {
	if len(histogram) == 0 {
		return nil, fmt.Errorf("empty histogram")
	}
	n := -1
	for k := range histogram {
		if n == -1 {
			n = len(k)
		} else if len(k) != n {
			return nil, fmt.Errorf("mixed key lengths")
		}
	}
	if n == 0 || n > bitstr.MaxBits {
		return nil, fmt.Errorf("key length %d out of range", n)
	}
	var entries []dist.Entry
	for k, v := range histogram {
		x, err := bitstr.Parse(k)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("negative mass")
		}
		entries = append(entries, dist.Entry{X: x, P: v})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].X < entries[j].X })
	d := dist.New(n)
	for _, e := range entries {
		d.Add(e.X, e.P)
	}
	if d.Total() <= 0 {
		return nil, fmt.Errorf("histogram has no mass")
	}
	return d.Normalize(), nil
}

// checkAgainstReference decodes body with both decoders and fails unless
// they agree: the same bodies rejected, and on accepted bodies a
// bit-identical dist (from FromSorted, and from FromHistogram on the
// reference map), the same cache key, override, and deadline.
func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	ref, refErr := decodeReference(body)
	var refDist *dist.Dist
	if refErr == nil {
		refDist, refErr = fromHistogramReference(ref.counts)
	}
	got, gotErr := decodeReconstruct(body)
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("body %q: reference err %v, wire decoder err %v", body, refErr, gotErr)
	}
	if gotErr != nil {
		return
	}
	gotDist, err := dist.FromSorted(got.bits, got.entries)
	if err != nil {
		t.Fatalf("body %q: decoder accepted a histogram FromSorted rejects: %v", body, err)
	}
	if err := sameDistBits(gotDist, refDist); err != nil {
		t.Fatalf("body %q: FromSorted: %v", body, err)
	}
	mapDist, _, err := dist.FromHistogram(ref.counts)
	if err != nil {
		t.Fatalf("body %q: FromHistogram: %v", body, err)
	}
	if err := sameDistBits(mapDist, refDist); err != nil {
		t.Fatalf("body %q: FromHistogram: %v", body, err)
	}
	for _, opts := range []core.Options{{}, {Radius: 2, Engine: core.EngineExact}} {
		if k, want := cache.KeySorted(got.bits, got.entries, opts), cache.Key(ref.counts, opts); k != want {
			t.Fatalf("body %q: key %s, reference key %s", body, k, want)
		}
	}
	if !reflect.DeepEqual(got.override, ref.override) {
		t.Fatalf("body %q: override %+v, reference %+v", body, got.override, ref.override)
	}
	if got.deadline != ref.deadline {
		t.Fatalf("body %q: deadline %v, reference %v", body, got.deadline, ref.deadline)
	}
}

// sameDistBits compares two distributions bit for bit: width, support,
// every outcome's float64 bits, and the stored total.
func sameDistBits(got, want *dist.Dist) error {
	if got.NumBits() != want.NumBits() || got.Len() != want.Len() {
		return fmt.Errorf("shape %d bits/%d outcomes, want %d/%d", got.NumBits(), got.Len(), want.NumBits(), want.Len())
	}
	if math.Float64bits(got.Total()) != math.Float64bits(want.Total()) {
		return fmt.Errorf("total %v, want %v", got.Total(), want.Total())
	}
	gx, wx := got.Outcomes(), want.Outcomes()
	for i := range gx {
		if gx[i] != wx[i] || math.Float64bits(got.Prob(gx[i])) != math.Float64bits(want.Prob(wx[i])) {
			return fmt.Errorf("outcome %d: %b=%v, want %b=%v", i, gx[i], got.Prob(gx[i]), wx[i], want.Prob(wx[i]))
		}
	}
	return nil
}

// decodeSeeds are the bodies FuzzDecodeReconstruct starts from, one per
// decoding rule the wire decoder must share with encoding/json.
var decodeSeeds = []string{
	// Plain bodies, both spellings, and whitespace.
	`{"1111": 812, "1110": 403, "0011": 891}`,
	`{"counts": {"1111": 50, "1110": 9}}`,
	" \t\r\n{ \"01\" : 1 ,\n\"10\":2 } \n",
	`{}`, `{"counts": {}}`, `null`, ``, `   `, `[]`, `"01"`, `5`, `true`,
	`{"01": 1}x`, `{"01": 1,}`, `{"01" 1}`, `{"01": 1`, `{"01": 01}`,
	"{\"01\": 1}\x00",
	// Escaped keys and field names.
	`{"\u0030\u0031": 2, "10": 1}`,
	`{"0\u0031": 1, "01": 3}`,
	`{"0\n": 1}`, `{"0\/": 1}`, `{"0\x": 1}`, `{"0\u003": 1}`,
	`{"\ud800": 1}`,
	`{"c\u006funts": {"01": 1}}`,
	`{"COUNTS": {"01": 1}, "Config": {"RADIUS": 1}}`,
	"{\"counts\": {\"01\": 1}, \"deadline_mſ\": 5}",
	"{\"counts\": {\"01\": 1}, \"confİg\": {\"radius\": 1}}",
	"{\"counts\": {\"01\": 1}, \"confıg\": {\"radius\": 1}}",
	"{\"01\": 1, \"\xff\": 2}",
	// Duplicate keys, in the histogram and in the wrapper.
	`{"01": 1, "01": 3, "10": 1}`,
	`{"01": -1, "01": 2}`,
	`{"01": 2, "01": -1}`,
	`{"01": 5, "01": null}`,
	`{"counts": {"01": 1}, "counts": {"10": 2}}`,
	`{"counts": {"0x": 1}, "counts": null, "counts": {"01": 1}}`,
	`{"counts": {"01": 1}, "config": {"radius": 1}, "config": {"topm": 4}}`,
	`{"counts": {"01": 1}, "config": {"radius": 1}, "config": null}`,
	`{"counts": {"01": 1}, "deadline_ms": 5, "deadline_ms": null}`,
	// Number forms.
	`{"01": 1e400}`, `{"01": -1e400, "10": 1}`, `{"01": 1e-400, "10": 1}`,
	`{"01": -0, "10": 1}`, `{"01": -0.0, "10": 0}`, `{"01": null, "10": 1}`,
	`{"01": 1E2, "10": 2.5e-3, "11": 0.1}`, `{"01": 123456789012345678, "10": 1}`,
	`{"01": 1.}`, `{"01": .5}`, `{"01": +1}`, `{"01": 1e}`, `{"01": -}`,
	`{"01": 0}`, `{"01": 0, "10": 0}`, `{"01": 1e308, "10": 1e308}`,
	`{"01": "1"}`, `{"01": true}`, `{"01": [1]}`,
	// Wrapped bodies: unknown fields, config and deadline types.
	`{"counts": {"01": 1}, "shots": 8192, "meta": {"backend": [1, "x", null]}}`,
	`{"counts": {"01": 1}, "x": 1e400}`,
	`{"counts": {"01": 1}, "01": {}}`,
	`{"counts": 1}`, `{"counts": {"01": 1}, "counts": 1}`,
	`{"counts": {"01": 1}, "config": {"radius": 2, "weights": "uniform", "disable_filter": true, "topm": 8, "engine": "exact"}}`,
	`{"counts": {"01": 1}, "config": {"radius": 1.5}}`,
	`{"counts": {"01": 1}, "config": {"radius": -0}}`,
	`{"counts": {"01": 1}, "config": {"radius": "1"}}`,
	`{"counts": {"01": 1}, "config": {"engine": 5}}`,
	`{"counts": {"01": 1}, "config": {"engine": "exacté"}}`,
	`{"counts": {"01": 1}, "config": {"disable_filter": "true"}}`,
	`{"counts": {"01": 1}, "config": {"radius": null, "extra": [{}]}}`,
	`{"counts": {"01": 1}, "config": 5}`, `{"counts": {"01": 1}, "config": null}`,
	`{"counts": {"01": 1}, "deadline_ms": 250}`, `{"counts": {"01": 1}, "deadline_ms": -1}`,
	`{"counts": {"01": 1}, "deadline_ms": 1.5}`, `{"counts": {"01": 1}, "deadline_ms": 1e3}`,
	`{"counts": {"01": 1}, "deadline_ms": 99999999999999999999}`,
	// Keys that are not outcomes.
	`{"0x": 1}`, `{"": 1}`, `{"01": 1, "011": 1}`, `{"2": 1}`, `{"counts": 5}`,
	`{"` + strings.Repeat("1", 64) + `": 1}`,
	`{"` + strings.Repeat("1", 65) + `": 1}`,
	// Nesting at and past encoding/json's limit.
	`{"counts": {"01": 1}, "x": ` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"counts": {"01": 1}, "x": ` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

// FuzzDecodeReconstruct is the differential fuzzer of the wire decoder
// against the encoding/json reference: see checkAgainstReference.
func FuzzDecodeReconstruct(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkAgainstReference)
}

// TestDecodeReconstructPermutations checks a larger histogram in every
// spelling a client might send — json.Marshal order, shuffled, wrapped,
// indented, with duplicates — against the reference.
func TestDecodeReconstructPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]string, 0, 600)
	for len(keys) < cap(keys) {
		keys = append(keys, bitstr.Format(bitstr.Bits(rng.Intn(1<<12)), 12))
	}
	member := func(k string) string { return fmt.Sprintf("%q: %v", k, rng.Float64()*100) }
	var members []string
	for _, k := range keys {
		members = append(members, member(k))
	}
	for name, body := range map[string]string{
		"shuffled": "{" + strings.Join(members, ",") + "}",
		"indented": "{\n  " + strings.Join(members, ",\n  ") + "\n}\n",
		"wrapped":  `{"counts": {` + strings.Join(members, ", ") + `}, "config": {"radius": 3}}`,
	} {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, []byte(body)) })
	}
	counts := map[string]int{}
	for _, k := range keys {
		counts[k] = rng.Intn(8192)
	}
	sorted, err := json.Marshal(counts)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, sorted)
}

// TestDecodeNarrowDuplicatesStayBounded: a body repeating a few narrow keys
// must not grow the entries past the distinct outcomes it can name.
func TestDecodeNarrowDuplicatesStayBounded(t *testing.T) {
	body := "{" + strings.Repeat(`"0": 1, "1": 2, `, 5000) + `"1": 3}`
	rr, err := decodeReconstruct([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.entries) != 2 || cap(rr.entries) > 4 || rr.entries[1].P != 3 {
		t.Fatalf("entries %v (cap %d)", rr.entries, cap(rr.entries))
	}
	checkAgainstReference(t, []byte(body))
}
