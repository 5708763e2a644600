package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// EngineIncremental names the streaming engine in Result.Engine. It is
// registered as streaming-only: not a valid Options.Engine value for the
// batch Reconstruct path, because incremental state only exists inside an
// Incremental accumulator. The stream layer resolves it through the registry
// like every other engine name.
const EngineIncremental = "incremental"

func init() {
	Register(Registration{Name: EngineIncremental, Streaming: true})
}

// fullResyncEvery bounds floating-point drift: delta-patched rows are exact
// sums in exact arithmetic but accumulate one rounding error per patch, so
// every fullResyncEvery-th revalidation rebuilds all rows from scratch. The
// amortized cost is one extra full pass per 256 snapshots.
const fullResyncEvery = 256

// Incremental is reusable HAMMER engine state for streaming reconstruction:
// CHS accumulators and per-outcome neighborhood rows that survive across
// snapshots, invalidated per dirty outcome instead of recomputed from
// scratch.
//
// Two observations make snapshots cheap. First, every quantity of
// Algorithm 1 is homogeneous in the total shot count T — probabilities are
// c(x)/T and both the global CHS and the admitted neighborhood strengths
// scale by 1/T — so the state is maintained in count space and rescaled at
// snapshot time. Second, when shots land on outcome x, the row of an
// unchanged outcome y within the radius shifts by a closed-form delta: its
// own mass did not move, so its filter decisions against x depend only on
// x's old and new mass, and the row is patched in O(1) per distance instead
// of recomputed. Only the changed outcomes themselves — whose filter
// decisions against every neighbor may flip — need a full row rebuild.
//
// Both happen in one fused pass (repair): for each changed outcome, in
// ascending outcome order, one scan of its popcount window rebuilds its own
// row and delta-patches the row of every unchanged neighbor it meets. A
// snapshot after a batch touching m unique outcomes therefore visits
// O(m · window) pairs plus O(N · radius) for the CHS and epilogue, never
// more than the O(N · window) of a full rebuild, instead of the full
// pairwise pass of the batch engines.
//
// All per-outcome state is addressed by the live index's dense slots, with
// no hashing after ingestion: the rows are two flat arrays of stride
// radius+1 (all and adm below), and the dirty set is a slot list plus a
// per-slot flag.
//
// Incremental is not safe for concurrent use; callers serialize Add and
// Snapshot.
type Incremental struct {
	n       int
	maxD    int
	stride  int // maxD+1: row length; index 0 is unused (distinct outcomes are at distance >= 1)
	scheme  WeightScheme
	filter  bool
	workers int

	ix *dist.LiveIndex

	// all[s*stride+d] is slot s's unfiltered neighborhood strength at
	// distance exactly d, in count space: its contribution to the global
	// CHS, because each unordered pair (x, y) at distance d contributes
	// mass(y) to x's row and mass(x) to y's row. adm is the admitted
	// strength under the lower-probability filter of §4.4 (only neighbors
	// with strictly lower mass give credit); with the filter disabled the
	// two coincide and adm aliases all.
	all, adm []float64
	// synced[s] is slot s's mass at its last row sync, so a repair knows a
	// changed outcome's old mass when patching its neighbors' rows.
	synced []float64
	// dirty[s] flags slots whose mass moved since the last row sync;
	// changed lists them.
	dirty   []bool
	changed []int32
	// ball is the repair pass's scratch for one outcome's neighbors.
	ball []dist.Neighbor

	resyncIn int     // revalidations until the next full anti-drift rebuild
	cached   *Result // last snapshot; nil when state changed since
}

// NewIncremental returns empty streaming engine state over n-bit outcomes.
// Options.TopM and Options.Engine are rejected: truncation invalidates
// per-outcome caching (the top-M membership shifts between snapshots), and
// the batch engines have no incremental state — callers that need either run
// the batch path per snapshot instead (internal/stream does this gating).
func NewIncremental(n int, opts Options) *Incremental {
	if n < 1 || n > bitstr.MaxBits {
		panic(fmt.Sprintf("core: incremental width %d out of range [1,%d]", n, bitstr.MaxBits))
	}
	if opts.TopM != 0 {
		panic(fmt.Sprintf("core: incremental state does not support TopM (%d)", opts.TopM))
	}
	if opts.Engine != "" && opts.Engine != EngineAuto && opts.Engine != EngineIncremental {
		panic(fmt.Sprintf("core: incremental state cannot run engine %q", opts.Engine))
	}
	maxD := opts.radius(n)
	return &Incremental{
		n:        n,
		maxD:     maxD,
		stride:   maxD + 1,
		scheme:   opts.Weights,
		filter:   !opts.DisableFilter,
		workers:  opts.workers(),
		ix:       dist.NewLiveIndex(n),
		resyncIn: fullResyncEvery,
	}
}

// NumBits returns the outcome width in bits.
func (inc *Incremental) NumBits() int { return inc.n }

// Support returns the number of distinct outcomes ingested so far.
func (inc *Incremental) Support() int { return inc.ix.Len() }

// Total returns the accumulated shot mass.
func (inc *Incremental) Total() float64 { return inc.ix.Total() }

// Radius returns the maximum admitted Hamming distance.
func (inc *Incremental) Radius() int { return inc.maxD }

// Range calls fn for every ingested outcome with its accumulated mass, in
// the live index's deterministic order (ascending Hamming weight, insertion
// order within a weight).
func (inc *Incremental) Range(fn func(x bitstr.Bits, mass float64)) {
	inc.ix.Range(fn)
}

// Add accumulates mass onto outcome x (one shot is mass 1). The update is
// O(1): row invalidation is deferred to the next Snapshot so that a batch
// touching m unique outcomes costs m neighborhood repairs, not one per shot.
func (inc *Incremental) Add(x bitstr.Bits, mass float64) {
	s, isNew := inc.ix.Add(x, mass)
	if isNew {
		inc.dirty = append(inc.dirty, false)
	}
	if !inc.dirty[s] {
		inc.dirty[s] = true
		inc.changed = append(inc.changed, s)
	}
	inc.cached = nil
}

// Snapshot reconstructs the distribution of the shots ingested so far,
// repairing only the engine state the changed outcomes touched. It panics
// when nothing has been ingested. Repeated snapshots with no intervening Add
// return the same Result.
func (inc *Incremental) Snapshot() *Result {
	if inc.ix.Len() == 0 {
		panic("core: snapshot of empty incremental state")
	}
	if inc.cached != nil {
		return inc.cached
	}
	inc.revalidate()

	total := inc.ix.Total()
	if total <= 0 {
		panic(fmt.Sprintf("core: snapshot of mass %v", total))
	}
	inv := 1 / total
	xs, ms := inc.ix.Outcomes(), inc.ix.Masses()

	// Global CHS: freshly summed from the cached rows every snapshot (cheap,
	// O(N·radius)) so the accumulator itself never drifts. chs[0] is the
	// self-pair term, Σ Pr(x) = 1 for a normalized histogram. Both sums run
	// in the live index's deterministic order.
	chs := make([]float64, inc.stride)
	chs[0] = 1
	for w := 0; w <= inc.n; w++ {
		for _, s := range inc.ix.Bucket(w) {
			row := inc.all[int(s)*inc.stride:][:inc.stride]
			for d := 1; d < len(row); d++ {
				chs[d] += row[d] * inv
			}
		}
	}
	wt := weights(chs, inc.maxD, inc.scheme)

	out := dist.New(inc.n)
	for w := 0; w <= inc.n; w++ {
		for _, s := range inc.ix.Bucket(w) {
			p := ms[s] * inv
			row := inc.adm[int(s)*inc.stride:][:inc.stride]
			sc := p
			for d := 1; d < len(row); d++ {
				sc += wt[d] * (row[d] * inv)
			}
			out.Set(xs[s], sc*p)
		}
	}
	out.Normalize()
	inc.cached = &Result{Out: out, GlobalCHS: chs, Weights: wt, Radius: inc.maxD, Engine: EngineIncremental}
	return inc.cached
}

// revalidate brings every row in line with the live index after a batch of
// mass updates: one fused repair pass over the changed outcomes, or — on the
// first snapshot, when everything changed, and every fullResyncEvery-th call
// to stop rounding drift — a full rebuild.
func (inc *Incremental) revalidate() {
	if len(inc.changed) == 0 {
		return
	}
	inc.grow()
	inc.resyncIn--
	if inc.resyncIn <= 0 || len(inc.changed) == inc.ix.Len() {
		inc.fullResync()
	} else {
		inc.repair()
	}
	for _, s := range inc.changed {
		inc.dirty[s] = false
	}
	inc.changed = inc.changed[:0]
}

// grow extends the slot-indexed row state to cover outcomes first seen
// since the last revalidation. New slots start with zero rows and zero
// synced mass, which is exactly "absent" for the delta patches.
func (inc *Incremental) grow() {
	n := inc.ix.Len()
	if len(inc.synced) == n {
		return
	}
	inc.synced = append(inc.synced, make([]float64, n-len(inc.synced))...)
	inc.all = append(inc.all, make([]float64, n*inc.stride-len(inc.all))...)
	if inc.filter {
		inc.adm = append(inc.adm, make([]float64, n*inc.stride-len(inc.adm))...)
	} else {
		inc.adm = inc.all
	}
}

// repair is the fused incremental pass. Changed outcomes are walked in
// ascending outcome order, and each scans its popcount window once (one
// LiveIndex.Ball query); every neighbor found at distance d then serves
// twice. It feeds the changed outcome's own rebuilt row: that outcome's mass
// moved, so any filter decision in its row may have flipped. And, when the
// neighbor is unchanged, the neighbor's row at d is delta-patched: the
// neighbor's own mass did not move, so its filter decision against the
// changed outcome depends only on that outcome's old and new mass — remove
// the old contribution, add the new one. Changed neighbors get no patch;
// their rows are rebuilt wholesale on their own turn.
func (inc *Incremental) repair() {
	xs := inc.ix.Outcomes()
	slices.SortFunc(inc.changed, func(a, b int32) int { return cmp.Compare(xs[a], xs[b]) })
	if len(inc.ball) < len(xs) {
		// Headroom, so a growing support does not reallocate every snapshot.
		inc.ball = make([]dist.Neighbor, 2*len(xs))
	}
	for _, s := range inc.changed {
		inc.rebuildRow(s, inc.ix.Ball(xs[s], inc.maxD, inc.ball), true)
	}
}

// fullResync rebuilds every row from the live index, resynchronizing all
// cached masses. It runs on the first snapshot (everything is changed) and
// periodically thereafter as the anti-drift backstop. Rows are independent,
// so the rebuild fans out across workers, each with its own ball scratch.
func (inc *Incremental) fullResync() {
	parallelRange(inc.ix.Len(), inc.workers, func(_, lo, hi int) {
		xs := inc.ix.Outcomes()
		buf := make([]dist.Neighbor, len(xs))
		for s := lo; s < hi; s++ {
			inc.rebuildRow(int32(s), inc.ix.Ball(xs[s], inc.maxD, buf), false)
		}
	})
	inc.resyncIn = fullResyncEvery
}

// rebuildRow recomputes slot s's row in place from its ball, summing the
// neighbors in ball order, and records its mass as synced. With patch set it
// also delta-patches every unchanged neighbor's row (see repair); only a
// serial caller may patch, as patching writes rows other than s's own.
//
// The loop has no data-dependent branch: the filter decisions and the
// unchanged-neighbor test are bit masks, and a masked-off term adds +0.
// Adding +0 leaves every float64 but -0 bit for bit as it was, and a row,
// which starts at +0 and only accumulates, never holds -0 — so the sums are
// bit-identical to adding only the admitted terms.
func (inc *Incremental) rebuildRow(s int32, near []dist.Neighbor, patch bool) {
	ms, dirty := inc.ix.Masses(), inc.dirty
	all, adm, stride, filter := inc.all, inc.adm, inc.stride, inc.filter
	oldM, newM := inc.synced[s], ms[s]
	delta := newM - oldM
	base := int(s) * stride
	rowAll := all[base:][:stride]
	rowAdm := adm[base:][:stride]
	clear(rowAll)
	clear(rowAdm)
	for _, nb := range near {
		my := ms[nb.Slot]
		rowAll[nb.D] += my
		if filter {
			rowAdm[nb.D] += keepIf(my, my < newM)
		}
		if !patch {
			continue
		}
		clean := !dirty[nb.Slot]
		i := int(nb.Slot)*stride + int(nb.D)
		all[i] += keepIf(delta, clean)
		if filter {
			admDelta := keepIf(-oldM, oldM < my) + keepIf(newM, newM < my)
			adm[i] += keepIf(admDelta, clean)
		}
	}
	inc.synced[s] = newM
}

// keepIf returns v when keep holds and +0 otherwise, through a bit mask
// rather than a branch.
func keepIf(v float64, keep bool) float64 {
	var mask uint64
	if keep {
		mask = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & mask)
}
