package hammer

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomShotSource draws shots clustered around a secret key, the Hamming
// profile of real noisy output, formatted as n-bit strings.
type randomShotSource struct {
	rng *rand.Rand
	n   int
	key int
}

func newShotSource(n int, seed int64) *randomShotSource {
	rng := rand.New(rand.NewSource(seed))
	return &randomShotSource{rng: rng, n: n, key: rng.Intn(1 << uint(n))}
}

func (s *randomShotSource) next() string {
	x := s.key
	for f := s.rng.Intn(s.n/2 + 1); f > 0; f-- {
		x ^= 1 << uint(s.rng.Intn(s.n))
	}
	return fmt.Sprintf("%0*b", s.n, x)
}

// TestStreamSnapshotMatchesRunCounts is the acceptance property test of the
// streaming layer: for random shot sequences ingested with random interleaved
// batch sizes (single shots, IngestN bursts, and whole IngestCounts
// histograms), every snapshot must agree with the batch RunCounts pipeline on
// the same accumulated histogram to 1e-12.
func TestStreamSnapshotMatchesRunCounts(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Radius: 2},
		{Weights: "uniform"},
		{DisableFilter: true},
		{Engine: "bucketed"},
		{TopM: 40},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("%+v", cfg), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				const n = 10
				src := newShotSource(n, seed)
				s, err := NewStream(n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				accumulated := map[string]int{}
				rng := rand.New(rand.NewSource(seed * 31))
				shots := 0
				for round := 0; round < 6; round++ {
					switch rng.Intn(3) {
					case 0: // single shots
						for i := 1 + rng.Intn(50); i > 0; i-- {
							shot := src.next()
							if err := s.Ingest(shot); err != nil {
								t.Fatal(err)
							}
							accumulated[shot]++
							shots++
						}
					case 1: // one outcome, many shots
						shot := src.next()
						k := 1 + rng.Intn(200)
						if err := s.IngestN(shot, k); err != nil {
							t.Fatal(err)
						}
						accumulated[shot] += k
						shots += k
					default: // a whole histogram batch
						batch := map[string]int{}
						for i := 1 + rng.Intn(30); i > 0; i-- {
							batch[src.next()] += 1 + rng.Intn(4)
						}
						if err := s.IngestCounts(batch); err != nil {
							t.Fatal(err)
						}
						for k, v := range batch {
							accumulated[k] += v
							shots += v
						}
					}
					if s.Shots() != shots {
						t.Fatalf("round %d: stream shots %d, ingested %d", round, s.Shots(), shots)
					}
					snap, err := s.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					// RunCounts is RunWithConfig with the zero Config; the
					// configured variants compare against the batch pipeline
					// under the same Config.
					histogram := make(map[string]float64, len(accumulated))
					for k, v := range accumulated {
						histogram[k] = float64(v)
					}
					want, err := RunWithConfig(histogram, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if len(snap) != len(want) {
						t.Fatalf("round %d: support %d vs %d", round, len(snap), len(want))
					}
					for k, p := range want {
						if !almostEq(snap[k], p, 1e-12) {
							t.Fatalf("seed %d round %d: %s: stream %v vs batch %v",
								seed, round, k, snap[k], p)
						}
					}
				}
			}
		})
	}
}

func TestStreamCountsRoundTrip(t *testing.T) {
	s, err := NewStream(4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]int{"1111": 12, "1110": 5, "0001": 2}
	if err := s.IngestCounts(in); err != nil {
		t.Fatal(err)
	}
	got := s.Counts()
	if len(got) != len(in) {
		t.Fatalf("counts %v", got)
	}
	for k, v := range in {
		if got[k] != v {
			t.Errorf("count %s = %d, want %d", k, got[k], v)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCounts(s.Counts())
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range want {
		if !almostEq(snap[k], p, 1e-12) {
			t.Errorf("%s: %v vs %v", k, snap[k], p)
		}
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := NewStream(0, Config{}); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := NewStream(65, Config{}); err == nil {
		t.Error("width 65 accepted")
	}
	if _, err := NewStream(4, Config{Weights: "quadratic"}); err == nil {
		t.Error("unknown weight scheme accepted")
	}
	if _, err := NewStream(4, Config{Engine: "fpga"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := NewStream(4, Config{Radius: -1}); err == nil {
		t.Error("negative radius accepted")
	}
	s, err := NewStream(4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("111"); err == nil {
		t.Error("short shot accepted")
	}
	if err := s.Ingest("11x1"); err == nil {
		t.Error("malformed shot accepted")
	}
	if err := s.IngestN("1111", 0); err == nil {
		t.Error("zero count accepted")
	}
	if err := s.IngestCounts(map[string]int{"1111": -1}); err == nil {
		t.Error("negative batch count accepted")
	}
	if err := s.IngestCounts(map[string]int{"1111": 3, "11111": 1}); err == nil {
		t.Error("mixed-width batch accepted")
	}
	// 2^53 is the stream's shot cap: either entry alone fits, both do not.
	if err := s.IngestCounts(map[string]int{"0001": 1 << 53, "0011": 1}); err == nil {
		t.Error("batch past the shot cap accepted")
	}
	if s.Shots() != 0 {
		t.Errorf("failed ingests recorded shots: %d", s.Shots())
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("empty snapshot did not error")
	}
}

// TestStreamIncrementalConverges: as shots accumulate, the streaming
// reconstruction of a noisy-BV-shaped source must settle on the secret key —
// the servable-workload story of the streaming layer.
func TestStreamIncrementalConverges(t *testing.T) {
	const n = 8
	src := newShotSource(n, 13)
	key := fmt.Sprintf("%0*b", n, src.key)
	s, err := NewStream(n, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if err := s.Ingest(src.next()); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	best, bestP := "", -1.0
	for k, p := range snap {
		if p > bestP {
			best, bestP = k, p
		}
	}
	if best != key {
		t.Fatalf("stream settled on %s (p=%v), want %s (p=%v)", best, bestP, key, snap[key])
	}
}
