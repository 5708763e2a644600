package stream

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dist"
)

// MaxShots caps a stream's total shot count at 2^53, the largest integer a
// float64 holds exactly. The incremental engine accumulates shot counts as
// float64 masses and Counts converts them back to int, so every count up to
// the cap round-trips exactly, and no int shot total can overflow on the way
// there. The write-ahead log's replay applies the same cap.
const MaxShots = 1 << 53

// Stream accumulates shots over an n-bit outcome space and reconstructs
// snapshots on demand. Exactly one histogram copy is kept: the incremental
// engine state's live index when the options allow it, or a plain count
// histogram for the batch fallback. It is not safe for concurrent use;
// callers serialize ingestion and snapshots.
type Stream struct {
	n      int
	opts   core.Options
	counts *dist.Counts      // batch fallback only; nil on the incremental path
	inc    *core.Incremental // nil when the batch fallback is in effect
	shots  int
}

// Incremental reports whether opts can be served by the incremental engine
// state, or must fall back to a batch reconstruction per snapshot.
func Incremental(opts core.Options) bool {
	if opts.TopM != 0 {
		return false
	}
	switch opts.Engine {
	case "", core.EngineAuto, core.EngineIncremental:
		return true
	default:
		return false
	}
}

// New returns an empty stream over n-bit outcomes. The options get the same
// validation as the batch path; negative radius or TopM and unknown engines
// are rejected as errors.
func New(n int, opts core.Options) (*Stream, error) {
	if n < 1 || n > bitstr.MaxBits {
		return nil, fmt.Errorf("stream: width %d out of range [1,%d]", n, bitstr.MaxBits)
	}
	if opts.Radius < 0 {
		return nil, fmt.Errorf("stream: negative radius %d", opts.Radius)
	}
	if opts.TopM < 0 {
		return nil, fmt.Errorf("stream: negative TopM %d", opts.TopM)
	}
	if opts.Engine == core.EngineIncremental {
		if opts.TopM != 0 {
			return nil, fmt.Errorf("stream: engine %q cannot serve TopM truncation (TopM=%d needs a batch engine)",
				core.EngineIncremental, opts.TopM)
		}
	} else if err := core.ValidateEngine(opts.Engine); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	s := &Stream{n: n, opts: opts}
	if Incremental(opts) {
		incOpts := opts
		incOpts.Engine = ""
		s.inc = core.NewIncremental(n, incOpts)
	} else {
		s.counts = dist.NewCounts(n)
	}
	return s, nil
}

// NumBits returns the outcome width in bits.
func (s *Stream) NumBits() int { return s.n }

// Shots returns the number of shots ingested so far.
func (s *Stream) Shots() int { return s.shots }

// Support returns the number of distinct outcomes observed so far.
func (s *Stream) Support() int {
	if s.inc != nil {
		return s.inc.Support()
	}
	return s.counts.Len()
}

// Counts returns a copy of the accumulated histogram.
func (s *Stream) Counts() *dist.Counts {
	if s.inc != nil {
		c := dist.NewCounts(s.n)
		// Masses are sums of int shot counts, exactly representable in
		// float64 at any realistic total.
		s.inc.Range(func(x bitstr.Bits, mass float64) {
			c.AddN(x, int(mass))
		})
		return c
	}
	return s.counts.Clone()
}

// Ingest records one shot of outcome x.
func (s *Stream) Ingest(x bitstr.Bits) error { return s.IngestN(x, 1) }

// IngestN records k shots of outcome x. k must be positive: a streaming
// source has no meaningful zero or negative shot message, so both are
// rejected rather than silently dropped. Shots that would take the stream
// past MaxShots are rejected and leave it unchanged.
func (s *Stream) IngestN(x bitstr.Bits, k int) error {
	if x&^bitstr.AllOnes(s.n) != 0 {
		return fmt.Errorf("stream: outcome %b exceeds %d bits", x, s.n)
	}
	if k <= 0 {
		return fmt.Errorf("stream: non-positive shot count %d", k)
	}
	if k > MaxShots-s.shots {
		return fmt.Errorf("stream: %d more shots would take the stream (%d shots) past %d", k, s.shots, MaxShots)
	}
	if s.inc != nil {
		s.inc.Add(x, float64(k))
	} else {
		s.counts.AddN(x, k)
	}
	s.shots += k
	return nil
}

// IngestCounts merges a whole count histogram (one batch of shots) into the
// stream. Widths must match.
func (s *Stream) IngestCounts(c *dist.Counts) error {
	if c.NumBits() != s.n {
		return fmt.Errorf("stream: batch width %d, stream width %d", c.NumBits(), s.n)
	}
	var err error
	c.Range(func(x bitstr.Bits, k int) {
		if err == nil && k > 0 {
			err = s.IngestN(x, k)
		}
	})
	return err
}

// Snapshot reconstructs the distribution of everything ingested so far. On
// the incremental path only the neighborhoods the new shots touched are
// recomputed; on the batch fallback the full pipeline runs over the
// accumulated counts. It errors when no shots have been ingested.
func (s *Stream) Snapshot() (*core.Result, error) {
	if s.shots == 0 {
		return nil, fmt.Errorf("stream: snapshot of empty stream (no shots ingested)")
	}
	if s.inc != nil {
		return s.inc.Snapshot(), nil
	}
	return core.Reconstruct(s.counts.Dist(), s.opts), nil
}
