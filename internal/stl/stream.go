package stl

import (
	"fmt"
	"math"
)

// StreamGroup evaluates many past-only formulas over one sample stream:
// it is a one-lane view of BatchStreamGroup, so the formulas share the
// engine's hash-consed node DAG — identical subformulas (same atoms,
// same windows) evaluate once per push and hold their operator state
// once — and every guarantee of the engine (O(1) amortized pushes,
// O(window) state, results exactly equal to the offline semantics)
// holds per group. All formulas advance together — one Push moves the
// whole group one sample — which is what keeps sharing sound.
type StreamGroup struct {
	batch *BatchStreamGroup
	lane  [1]int    // the one lane every push names
	vals  []float64 // Push's map-binding scratch, one slot per variable
	sats  []bool    // Results scratch
	robs  []float64
}

// NewStreamGroup creates an empty group at sampling period dtMin
// minutes.
func NewStreamGroup(dtMin float64) (*StreamGroup, error) {
	batch, err := NewBatchStreamGroup(dtMin, 1)
	if err != nil {
		return nil, err
	}
	return &StreamGroup{batch: batch}, nil
}

// Add compiles a past-only formula into the group and returns its
// index. Formulas may only be added before the first Push (operator
// state of shared nodes would otherwise be mid-stream).
func (g *StreamGroup) Add(f Formula) (int, error) {
	i, err := g.batch.Add(f)
	if err != nil {
		return 0, err
	}
	for len(g.vals) < len(g.batch.comp.vars) {
		g.vals = append(g.vals, 0)
	}
	g.sats = append(g.sats, false)
	g.robs = append(g.robs, 0)
	return i, nil
}

// Size returns the number of formulas in the group.
func (g *StreamGroup) Size() int { return g.batch.Size() }

// Len returns the number of samples pushed.
func (g *StreamGroup) Len() int { return g.batch.LaneLen(0) }

// Dt returns the sampling period in minutes.
func (g *StreamGroup) Dt() float64 { return g.batch.Dt() }

// Vars returns the variable table: PushVector values are indexed by
// this order. The table grows only in Add, never during pushes.
func (g *StreamGroup) Vars() []string { return g.batch.Vars() }

// VarIndex resolves a variable name to its PushVector slot.
func (g *StreamGroup) VarIndex(name string) (int, bool) { return g.batch.VarIndex(name) }

// Push consumes one sample for every formula in the group. A sample
// missing a referenced variable is rejected before any operator state
// advances.
//
//fleetvet:noalloc
func (g *StreamGroup) Push(sample map[string]float64) error {
	for i, name := range g.batch.comp.vars {
		v, ok := sample[name]
		if !ok {
			return fmt.Errorf("stl: unknown variable %q", name)
		}
		g.vals[i] = v
	}
	return g.PushVector(g.vals)
}

// PushVector is the allocation- and map-free push: vals must hold one
// value per Vars() entry, in table order. It is the hot path for
// callers with a fixed vocabulary.
//
//fleetvet:noalloc
func (g *StreamGroup) PushVector(vals []float64) error {
	return g.batch.PushLanes(g.lane[:], vals)
}

// Sat returns formula i's satisfaction at the newest sample (false
// before the first push).
func (g *StreamGroup) Sat(i int) bool {
	if g.batch.lastN == 0 {
		return false
	}
	return g.batch.roots[i].output().sat[0]
}

// Rob returns formula i's robustness margin at the newest sample (0
// before the first push).
func (g *StreamGroup) Rob(i int) float64 {
	if g.batch.lastN == 0 {
		return 0
	}
	return g.batch.roots[i].output().rob[0]
}

// Results returns the satisfaction and robustness of every formula at
// the newest sample, indexed by Add order. The slices are reused by the
// next call; callers that retain them must copy.
func (g *StreamGroup) Results() (sats []bool, robs []float64) {
	for i := range g.sats {
		g.sats[i], g.robs[i] = g.Sat(i), g.Rob(i)
	}
	return g.sats, g.robs
}

// StateSamples returns the total buffered per-sample entries across the
// group's unique operator nodes: shared windows count once, which is
// the hash-consing saving the boundedness tests assert.
func (g *StreamGroup) StateSamples() int { return g.batch.StateSamples() }

// Reset clears all operator state, as if no samples had been pushed.
func (g *StreamGroup) Reset() { g.batch.Reset() }

// Stream is the incremental streaming evaluator for one past-only
// formula: a one-formula StreamGroup. Each temporal operator compiles
// to a stateful node — ring buffers for the bounded-history delay
// lines, monotonic (Lemire) deques for the Once/Historically window
// extrema, and a clamp-merge candidate deque for bounded Since — so
// every Push costs O(1) amortized and the total retained state is
// O(sum of window lengths), independent of how long the session runs.
// Verdicts and robustness are exactly equal, sample for sample, to
// evaluating the formula's Sat/Robustness on the full recorded trace
// (the differential property tests in prop_test.go enforce this on
// randomized formulas). Repeated stateful subformulas are hash-consed
// like in any group, so they buffer their state once.
//
// Every variable the formula references must be present in every pushed
// sample; a missing variable is an error (the offline trace semantics
// backfill NaN, which silently poisons windowed extrema — a streaming
// hazard monitor should fail loudly instead).
type Stream struct {
	formula Formula
	group   *StreamGroup
	sat     []bool // the formula's output vectors in the group
	rob     []float64
}

// NewStream compiles a past-only formula for streaming evaluation at
// sampling period dtMin minutes.
func NewStream(f Formula, dtMin float64) (*Stream, error) {
	g, err := NewStreamGroup(dtMin)
	if err != nil {
		return nil, err
	}
	if _, err := g.Add(f); err != nil {
		return nil, err
	}
	sat, rob := g.batch.Outputs(0)
	return &Stream{formula: f, group: g, sat: sat, rob: rob}, nil
}

// Formula returns the compiled formula.
func (s *Stream) Formula() Formula { return s.formula }

// Dt returns the sampling period in minutes.
func (s *Stream) Dt() float64 { return s.group.Dt() }

// Len returns the number of samples pushed.
func (s *Stream) Len() int { return s.group.Len() }

// Push consumes one sample and returns boolean satisfaction and the
// robustness margin at that sample. A sample missing a referenced
// variable is rejected before any operator state advances, so the
// stream stays consistent and the caller may push a corrected sample.
//
//fleetvet:noalloc
func (s *Stream) Push(sample map[string]float64) (bool, float64, error) {
	if err := s.group.Push(sample); err != nil {
		return false, 0, err
	}
	return s.sat[0], s.rob[0], nil
}

// Last returns the verdict and robustness at the newest sample.
func (s *Stream) Last() (sat bool, rob float64, err error) {
	if s.Len() == 0 {
		return false, 0, fmt.Errorf("stl: no samples pushed")
	}
	return s.sat[0], s.rob[0], nil
}

// StateSamples returns the total number of buffered per-sample entries
// across the unique operator nodes — the quantity that must stay
// O(window) regardless of how many samples have been pushed (asserted
// by the boundedness tests).
func (s *Stream) StateSamples() int { return s.group.StateSamples() }

// Reset clears all operator state, as if no samples had been pushed.
func (s *Stream) Reset() { s.group.Reset() }

// --- per-lane operator cores -----------------------------------------

// delayLine is a fixed-size FIFO that releases each pushed value after
// exactly `size` further pushes: the [A, ...] lower bound of a past
// window delays the child stream by lo samples.
type delayLine struct {
	buf  []float64
	head int
	n    int
}

func newDelayLine(size int) delayLine {
	return delayLine{buf: make([]float64, size)}
}

// push inserts v and returns the value falling out of the line, if any.
// A zero-size line passes v straight through.
//
//fleetvet:noalloc
func (d *delayLine) push(v float64) (out float64, ok bool) {
	if len(d.buf) == 0 {
		return v, true
	}
	if d.n < len(d.buf) {
		d.buf[(d.head+d.n)%len(d.buf)] = v
		d.n++
		return 0, false
	}
	out = d.buf[d.head]
	d.buf[d.head] = v
	d.head = (d.head + 1) % len(d.buf)
	return out, true
}

func (d *delayLine) state() int { return d.n }

func (d *delayLine) reset() {
	d.head, d.n = 0, 0
}

// monoDeque is a Lemire sliding-window extremum deque: values are kept
// monotonic (non-increasing for max, non-decreasing for min) from front
// to back, with indices increasing, so the window extremum is always at
// the front. Pushes are O(1) amortized; memory is O(window).
type monoDeque struct {
	idx   []int
	val   []float64
	head  int
	isMin bool
}

func newMonoDeque(capacity int, isMin bool) monoDeque {
	if capacity < 1 {
		capacity = 1
	}
	return monoDeque{
		idx:   make([]int, 0, capacity),
		val:   make([]float64, 0, capacity),
		isMin: isMin,
	}
}

// dominates reports whether a new value v makes an older value u
// redundant (the new index is larger, so on ties the new entry wins).
func (q *monoDeque) dominates(v, u float64) bool {
	if q.isMin {
		return v <= u
	}
	return v >= u
}

//fleetvet:noalloc
func (q *monoDeque) push(i int, v float64) {
	for q.len() > 0 && q.dominates(v, q.val[len(q.val)-1]) {
		q.idx = q.idx[:len(q.idx)-1]
		q.val = q.val[:len(q.val)-1]
	}
	if q.head > 0 && q.len() == 0 {
		// Compact so the slices do not creep rightward forever.
		q.idx = q.idx[:0]
		q.val = q.val[:0]
		q.head = 0
	}
	if q.head > 0 && len(q.idx) == cap(q.idx) {
		n := copy(q.idx[:q.len()], q.idx[q.head:])
		copy(q.val[:n], q.val[q.head:])
		q.idx = q.idx[:n]
		q.val = q.val[:n]
		q.head = 0
	}
	q.idx = append(q.idx, i) //fleetvet:alloc capacity preallocated for the window bound at construction
	q.val = append(q.val, v) //fleetvet:alloc capacity preallocated for the window bound at construction
}

// evictBefore drops front entries with index < minIdx.
func (q *monoDeque) evictBefore(minIdx int) {
	for q.len() > 0 && q.idx[q.head] < minIdx {
		q.head++
	}
}

func (q *monoDeque) len() int { return len(q.idx) - q.head }

// front returns the window extremum.
func (q *monoDeque) front() float64 { return q.val[q.head] }

// frontIdx returns the index of the extremum entry.
func (q *monoDeque) frontIdx() int { return q.idx[q.head] }

// popFront removes the extremum entry.
func (q *monoDeque) popFront() { q.head++ }

// pushFront reinserts a merged entry at the extremum end (clamp-merge of
// the bounded-Since candidate deque). The caller guarantees v keeps the
// monotonic invariant and that at least one popFront preceded this call,
// so there is always slack at the front.
func (q *monoDeque) pushFront(i int, v float64) {
	if q.head == 0 {
		panic("stl: pushFront without a preceding popFront")
	}
	q.head--
	q.idx[q.head], q.val[q.head] = i, v
}

func (q *monoDeque) reset() {
	q.idx = q.idx[:0]
	q.val = q.val[:0]
	q.head = 0
}

// --- Once / Historically ---------------------------------------------

// extremumCore computes the sliding extremum of one float64 stream over
// the past window [lo, hi] in sample offsets (hi < 0: unbounded). It is
// instantiated twice per lane of a window node: once over robustness
// values and once over satisfaction encoded as 0/1 (min = and, max =
// or), so both semantics stream through identical machinery.
type extremumCore struct {
	lo, hi int
	isMin  bool
	i      int // samples consumed

	delay delayLine
	dq    monoDeque // bounded window (hi >= 0)
	agg   float64   // unbounded window running extremum
}

func newExtremumCore(lo, hi int, isMin bool) extremumCore {
	c := extremumCore{lo: lo, hi: hi, isMin: isMin, delay: newDelayLine(lo)}
	if hi >= 0 {
		c.dq = newMonoDeque(hi-lo+1, isMin)
	}
	c.agg = c.empty()
	return c
}

// empty is the extremum of an empty window: -Inf for max (Once of
// nothing is false), +Inf for min (Historically of nothing is true).
func (c *extremumCore) empty() float64 {
	if c.isMin {
		return math.Inf(1)
	}
	return math.Inf(-1)
}

//fleetvet:noalloc
func (c *extremumCore) push(v float64) float64 {
	i := c.i
	c.i++
	if c.hi >= 0 && c.lo > c.hi {
		return c.empty() // fractional bounds with no sample offsets
	}
	dv, ok := c.delay.push(v)
	if !ok {
		return c.empty() // window has not reached the first sample yet
	}
	d := i - c.lo // index of the delayed sample
	if c.hi < 0 {
		if c.isMin {
			c.agg = math.Min(c.agg, dv)
		} else {
			c.agg = math.Max(c.agg, dv)
		}
		return c.agg
	}
	c.dq.push(d, dv)
	c.dq.evictBefore(i - c.hi)
	return c.dq.front()
}

func (c *extremumCore) state() int { return c.delay.state() + c.dq.len() }

func (c *extremumCore) reset() {
	c.i = 0
	c.delay.reset()
	c.dq.reset()
	c.agg = c.empty()
}

// --- Since -----------------------------------------------------------

// sinceCore streams the quantitative Since semantics over one pair of
// float64 streams (phi = left operand, psi = right operand):
//
//	out_i = max over j in [i-hi, i-lo] of
//	        min( psi_j, min over k in (j, i] of phi_k )
//
// Each candidate witness j carries the running value A_i(j) =
// min(psi_j, min phi over (j, i]). On every push all candidates are
// clamped by min(·, phi_i); because min distributes over max, the
// candidates can live in a max-deque where the clamp collapses the
// strictly-greater front prefix into a single entry keeping the newest
// index (clamp-merge), preserving both dominance order and expiry
// correctness. A candidate enters the deque lo pushes after its psi
// sample, pre-clamped with the sliding minimum of phi over the samples
// it skipped, so the [lo, hi] offset window needs no per-step rescans.
// With hi unbounded the whole deque degenerates to one scalar
// recursion: z_i = max(min(z_{i-1}, phi_i), candidate_i).
//
// Boolean Since runs the identical algorithm over {0,1} (min = and,
// max = or). Every push is O(1) amortized; state is O(window).
type sinceCore struct {
	lo, hi int
	i      int

	phiWin   monoDeque // lo > 0: sliding min of phi over the last lo samples
	psiDelay delayLine // psi values waiting to become candidates

	cand monoDeque // bounded hi: candidate max-deque
	z    float64   // unbounded hi: running max
}

func newSinceCore(lo, hi int) sinceCore {
	c := sinceCore{lo: lo, hi: hi, psiDelay: newDelayLine(lo), z: math.Inf(-1)}
	if lo > 0 {
		c.phiWin = newMonoDeque(lo, true)
	}
	if hi >= 0 {
		c.cand = newMonoDeque(hi-lo+1, false)
	}
	return c
}

//fleetvet:noalloc
func (c *sinceCore) push(phi, psi float64) float64 {
	i := c.i
	c.i++
	if c.hi >= 0 && c.lo > c.hi {
		return math.Inf(-1) // fractional bounds with no sample offsets
	}

	// Sliding min of phi over the last lo samples (k in [i-lo+1, i]):
	// the pre-clamp applied to a candidate the moment it enters.
	if c.lo > 0 {
		c.phiWin.push(i, phi)
		c.phiWin.evictBefore(i - c.lo + 1)
	}

	// The candidate maturing now, if the window reaches back to it.
	dpsi, mature := c.psiDelay.push(psi)
	cv := math.Inf(-1)
	if mature {
		cv = dpsi
		if c.lo > 0 {
			cv = math.Min(cv, c.phiWin.front())
		}
	}

	if c.hi < 0 {
		// Unbounded window: clamp the running max, fold the candidate.
		c.z = math.Min(c.z, phi)
		if mature {
			c.z = math.Max(c.z, cv)
		}
		return c.z
	}

	// Clamp-merge: every stored candidate predates this sample, so all
	// of them take min(·, phi). Entries strictly above phi form the
	// front prefix of the max-deque; they collapse to value phi, and
	// only the newest (latest-expiring) index needs to survive.
	if c.cand.len() > 0 && c.cand.front() > phi {
		merged := c.cand.frontIdx()
		for c.cand.len() > 0 && c.cand.front() > phi {
			merged = c.cand.frontIdx()
			c.cand.popFront()
		}
		c.cand.pushFront(merged, phi)
	}
	// Expire witnesses older than the window, then admit the new one.
	c.cand.evictBefore(i - c.hi)
	if mature {
		c.cand.push(i-c.lo, cv)
	}
	if c.cand.len() == 0 {
		return math.Inf(-1)
	}
	return c.cand.front()
}

func (c *sinceCore) state() int {
	return c.psiDelay.state() + c.phiWin.len() + c.cand.len()
}

func (c *sinceCore) reset() {
	c.i = 0
	c.psiDelay.reset()
	c.phiWin.reset()
	c.cand.reset()
	c.z = math.Inf(-1)
}
