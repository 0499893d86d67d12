package stl

import (
	"fmt"
	"math"
)

// batchCtx carries one push through the node DAG: the active lane list,
// the struct-of-arrays value matrix (vals[v*n+k] holds variable v of
// active lane k), and the push sequence number that shared temporal
// nodes key their once-per-push guard on.
type batchCtx struct {
	lanes []int
	vals  []float64
	n     int
	seq   uint64
}

// batchNode is one compiled operator evaluated across every active lane
// at once: step consumes the newest sample of each active lane and
// returns satisfaction and robustness vectors indexed like ctx.lanes.
// The returned slices are prefixes of the node's fixed, width-sized
// output vectors (output), valid until its next step; aliasing between
// parents is safe because a shared stateless node rewrites identical
// values and a shared temporal node advances once per push (pushGuard).
type batchNode interface {
	step(ctx *batchCtx) (sat []bool, rob []float64)
	output() batchOut
	state() int
	reset()
	resetLane(lane int)
}

// batchCompiler lowers past-only formulas to nodes whose per-operator
// state is a [lanes]-wide vector of the per-lane cores, resolving
// variable names to value-matrix rows. It hash-conses the compiled DAG:
// structurally identical subformulas — same atoms, same windows —
// compile to one shared node whose operator state and per-push work
// exist once per group, and every temporal node carries a pushGuard so
// it advances exactly once per sample no matter how many formulas
// contain it.
type batchCompiler struct {
	dt       float64
	width    int
	vars     []string
	varIdx   map[string]int
	cache    map[string]batchNode // canonical rendering -> shared node
	temporal []temporalNode       // every temporal node, in creation order
	flat     flatBank             // every fused conjunction, evaluated in one pass
}

// temporalNode is a Once/Historically/Since node: the only nodes that
// hold per-lane state.
type temporalNode interface {
	batchNode
	guard() *pushGuard
}

// pushGuard makes a temporal node safe to share between parents: the
// first step of a push advances the node across all active lanes, later
// steps within the same push return its output vectors unchanged, so
// shared operator state consumes each sample exactly once.
type pushGuard struct {
	seq     uint64 // the push the node last advanced on
	visited bool   // StateSamples dedup walk marker
}

// stepped reports whether the node already advanced on this push, and
// marks it as advancing otherwise.
func (p *pushGuard) stepped(ctx *batchCtx) bool {
	if p.seq == ctx.seq {
		return true
	}
	p.seq = ctx.seq
	return false
}

// counted reports whether this dedup walk already counted the node's
// state, and marks it counted otherwise.
func (p *pushGuard) counted() bool {
	if p.visited {
		return true
	}
	p.visited = true
	return false
}

func (p *pushGuard) guard() *pushGuard { return p }

func newBatchCompiler(dt float64, width int) *batchCompiler {
	return &batchCompiler{
		dt: dt, width: width,
		varIdx: make(map[string]int),
		cache:  make(map[string]batchNode),
	}
}

// varIndex interns a variable name into the value matrix.
func (c *batchCompiler) varIndex(name string) int {
	if i, ok := c.varIdx[name]; ok {
		return i
	}
	i := len(c.vars)
	c.vars = append(c.vars, name)
	c.varIdx[name] = i
	return i
}

// compile lowers one formula, sharing previously compiled identical
// subformulas. The canonical key is the parser syntax rendering, which
// is injective on the AST (thresholds print at shortest-round-trip
// precision).
func (c *batchCompiler) compile(f Formula) (batchNode, error) {
	key := f.String()
	if n, ok := c.cache[key]; ok {
		return n, nil
	}
	n, err := c.lower(f)
	if err != nil {
		return nil, err
	}
	if t, ok := n.(temporalNode); ok {
		c.temporal = append(c.temporal, t)
	}
	c.cache[key] = n
	return n, nil
}

// lower compiles one operator, recursing through compile so every
// subformula takes part in sharing. Minute bounds convert to inclusive
// sample offsets exactly as Bounds.window does, so streaming and offline
// evaluation agree on window edges (including empty fractional windows).
func (c *batchCompiler) lower(f Formula) (batchNode, error) {
	switch n := f.(type) {
	case *Atom:
		switch n.Op {
		case OpLT, OpLE, OpGT, OpGE:
			return c.lowerFlat([]*Atom{n}), nil // a conjunction of one
		case OpEQ, OpNE:
			return &batchEqNode{
				varIdx: c.varIndex(n.Var), ne: n.Op == OpNE, threshold: n.Threshold,
				out: newBatchOut(c.width),
			}, nil
		}
		return nil, fmt.Errorf("stl: invalid comparison op %d", int(n.Op))
	case Const:
		bc := &batchConstNode{out: newBatchOut(c.width)}
		rob := math.Inf(-1)
		if bool(n) {
			rob = math.Inf(1)
		}
		for k := 0; k < c.width; k++ {
			bc.out.sat[k] = bool(n)
			bc.out.rob[k] = rob
		}
		return bc, nil
	case *Not:
		child, err := c.compile(n.Child)
		if err != nil {
			return nil, err
		}
		return &batchNotNode{child: child, out: newBatchOut(c.width)}, nil
	case *And:
		if len(n.Children) == 0 {
			return c.lower(Const(true)) // the empty conjunction
		}
		if atoms, ok := flatOrderAtoms(n.Children); ok {
			// Kernel fusion for the dominant rule shape — a flat
			// conjunction of ordering predicates — evaluates as a
			// dispatch- and switch-free linear form per atom.
			return c.lowerFlat(atoms), nil
		}
		cs, err := c.compileChildren(n.Children)
		if err != nil {
			return nil, err
		}
		return &batchAndNode{children: cs, out: newBatchOut(c.width)}, nil
	case *Or:
		if len(n.Children) == 0 {
			return c.lower(Const(false)) // the empty disjunction
		}
		cs, err := c.compileChildren(n.Children)
		if err != nil {
			return nil, err
		}
		return &batchOrNode{children: cs, out: newBatchOut(c.width)}, nil
	case *Implies:
		l, err := c.compile(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(n.R)
		if err != nil {
			return nil, err
		}
		return &batchImpliesNode{l: l, r: r, out: newBatchOut(c.width)}, nil
	case *Once:
		return c.lowerWindow(n.Bounds, n.Child, false)
	case *Historically:
		return c.lowerWindow(n.Bounds, n.Child, true)
	case *Since:
		l, err := c.compile(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(n.R)
		if err != nil {
			return nil, err
		}
		lo, hi, err := pastWindow(n.Bounds, c.dt)
		if err != nil {
			return nil, err
		}
		return newBatchSinceNode(l, r, lo, hi, c.width), nil
	default:
		return nil, fmt.Errorf("stl: cannot stream %T", f)
	}
}

// lowerFlat adds a conjunction of ordering predicates to the flat bank.
func (c *batchCompiler) lowerFlat(atoms []*Atom) batchNode {
	fa := &batchFlatAndNode{out: newBatchOut(c.width)}
	for _, a := range atoms {
		c.flat.atoms = append(c.flat.atoms, newFusedAtom(c.varIndex(a.Var), a.Op, a.Threshold))
	}
	c.flat.ends = append(c.flat.ends, len(c.flat.atoms))
	c.flat.members = append(c.flat.members, fa)
	return fa
}

// lowerWindow compiles Once (max) or Historically (min) over child.
func (c *batchCompiler) lowerWindow(b Bounds, child Formula, isMin bool) (batchNode, error) {
	cn, err := c.compile(child)
	if err != nil {
		return nil, err
	}
	lo, hi, err := pastWindow(b, c.dt)
	if err != nil {
		return nil, err
	}
	return newBatchWindowNode(cn, lo, hi, isMin, c.width), nil
}

func (c *batchCompiler) compileChildren(children []Formula) ([]batchNode, error) {
	out := make([]batchNode, len(children))
	for i, child := range children {
		n, err := c.compile(child)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// maxStreamWindow caps the samples one streaming operator core may
// buffer (a delay line of lo samples, a deque of hi-lo+1 entries). Its
// buffers are preallocated per lane at compile time, so a window this
// long — about 40 years of 5-minute cycles — is already far past any
// monitoring horizon; a longer one is a units mistake or a hostile
// input (a forged sampling period), and must fail compilation instead
// of attempting the allocation.
const maxStreamWindow = 1 << 22

// pastWindow converts minute bounds to inclusive sample offsets; hi < 0
// encodes an unbounded window (back to the first sample). It delegates
// to the same Bounds.window conversion the offline evaluator uses —
// with horizon -1 an unbounded B comes back as exactly that sentinel —
// so streaming and offline can never disagree on window edges.
func pastWindow(b Bounds, dt float64) (lo, hi int, err error) {
	lo, hi, err = b.window(dt, -1)
	if err != nil {
		return 0, 0, err
	}
	if lo > maxStreamWindow || hi-lo >= maxStreamWindow {
		return 0, 0, fmt.Errorf("stl: window %v at dt=%v spans more than %d samples", b, dt, maxStreamWindow)
	}
	return lo, hi, nil
}

// batchOut is a node's output vector pair, sized to the group width at
// construction so the hot path never allocates.
type batchOut struct {
	sat []bool
	rob []float64
}

func newBatchOut(width int) batchOut {
	return batchOut{sat: make([]bool, width), rob: make([]float64, width)}
}

// --- stateless nodes -------------------------------------------------

// batchEqNode is an equality atom, v == θ or (ne) v != θ; ordering
// atoms are one-atom members of the flat bank.
type batchEqNode struct {
	varIdx    int
	ne        bool
	threshold float64
	out       batchOut
}

//fleetvet:noalloc
func (a *batchEqNode) step(ctx *batchCtx) ([]bool, []float64) {
	n := ctx.n
	vals := ctx.vals[a.varIdx*n : (a.varIdx+1)*n]
	sat, rob := a.out.sat[:n], a.out.rob[:n]
	th := a.threshold
	for k, v := range vals {
		if a.ne {
			sat[k], rob[k] = v != th, math.Abs(v-th)
		} else {
			sat[k], rob[k] = v == th, -math.Abs(v-th)
		}
	}
	return sat, rob
}

func (a *batchEqNode) output() batchOut { return a.out }
func (a *batchEqNode) state() int       { return 0 }
func (a *batchEqNode) reset()           {}
func (a *batchEqNode) resetLane(int)    {}

type batchConstNode struct{ out batchOut }

//fleetvet:noalloc
func (c *batchConstNode) step(ctx *batchCtx) ([]bool, []float64) {
	return c.out.sat[:ctx.n], c.out.rob[:ctx.n]
}

func (c *batchConstNode) output() batchOut { return c.out }
func (c *batchConstNode) state() int       { return 0 }
func (c *batchConstNode) reset()           {}
func (c *batchConstNode) resetLane(int)    {}

type batchNotNode struct {
	child batchNode
	out   batchOut
}

//fleetvet:noalloc
func (nn *batchNotNode) step(ctx *batchCtx) ([]bool, []float64) {
	cs, cr := nn.child.step(ctx)
	sat, rob := nn.out.sat[:ctx.n], nn.out.rob[:ctx.n]
	for k := range cs {
		sat[k], rob[k] = !cs[k], -cr[k]
	}
	return sat, rob
}

func (nn *batchNotNode) output() batchOut   { return nn.out }
func (nn *batchNotNode) state() int         { return nn.child.state() }
func (nn *batchNotNode) reset()             { nn.child.reset() }
func (nn *batchNotNode) resetLane(lane int) { nn.child.resetLane(lane) }

// flatOrderAtoms reports whether every child is an ordering predicate
// (<, <=, >, >=) — the shapes that reduce to a linear robustness form.
func flatOrderAtoms(children []Formula) ([]*Atom, bool) {
	out := make([]*Atom, len(children))
	for i, c := range children {
		a, ok := c.(*Atom)
		if !ok || a.Op < OpLT || a.Op > OpGE {
			return nil, false
		}
		out[i] = a
	}
	return out, true
}

// fusedAtom is an ordering predicate precompiled to the linear form
// x = v·mul against lim = θ·mul: mul = -1 for v < θ / v <= θ and
// mul = 1 for v > θ / v >= θ. Robustness is x - lim — -v - (-θ) and
// v - θ are the same IEEE results as the atom's θ - v and v - θ — and
// satisfaction is the exact comparison x > lim (strict) or x >= lim,
// since v < θ is -v > -θ, infinities included; the comparison switch
// folds away.
type fusedAtom struct {
	mul, lim float64
	varIdx   int32
	strict   bool
}

func newFusedAtom(varIdx int, op CmpOp, threshold float64) fusedAtom {
	f := fusedAtom{mul: 1, lim: threshold, varIdx: int32(varIdx), strict: op == OpLT || op == OpGT}
	if op == OpLT || op == OpLE {
		f.mul, f.lim = -1, -threshold
	}
	return f
}

// batchFlatAndNode is a conjunction of ordering predicates — the
// common Safety Context Specification antecedent shape, and with one
// atom every ordering atom — fused into the compiler's flatBank, which
// fills every member's output before any node steps; step only hands
// the vectors out. Semantics are exactly batchAndNode over the same
// atoms.
type batchFlatAndNode struct{ out batchOut }

//fleetvet:noalloc
func (a *batchFlatAndNode) step(ctx *batchCtx) ([]bool, []float64) {
	return a.out.sat[:ctx.n], a.out.rob[:ctx.n]
}

// flatBank evaluates every fused conjunction of a group in one pass per
// push, with no per-conjunction dispatch: all members' atoms sit in one
// array, member m's ending at ends[m], and each lane folds them in a
// single loop that flushes a member's verdict at its boundary — the
// same kernel at every width.
type flatBank struct {
	atoms   []fusedAtom
	ends    []int
	members []*batchFlatAndNode
}

//fleetvet:noalloc
func (b *flatBank) step(ctx *batchCtx) {
	if len(b.ends) == 0 {
		return
	}
	n, vals, atoms := ctx.n, ctx.vals, b.atoms
	negInf := math.Inf(-1)
	for k := 0; k < n; k++ {
		m, end := 0, b.ends[0]
		s, r := true, math.Inf(1)
		for j := range atoms {
			at := &atoms[j]
			x := vals[int(at.varIdx)*n+k] * at.mul
			cr := x - at.lim
			// Negated comparisons so a NaN input reads unsatisfied, exactly
			// like the atom's direct v-vs-θ comparison.
			if at.strict {
				if !(x > at.lim) {
					s = false
				}
			} else if !(x >= at.lim) {
				s = false
			}
			// Compare-based min, equal to the math.Min fold of
			// batchAndNode — a NaN poisons the robustness unless -Inf is
			// already in, and -Inf wins over NaN — minus its ±0 branch (a
			// tie between zeros keeps the first; they compare equal).
			// !(cr >= r) is the one compare on the common path: it holds
			// for cr < r and whenever either side is NaN.
			if !(cr >= r) && (cr < r || cr == negInf || cr != cr && r != negInf) {
				r = cr
			}
			if j+1 == end { // member m is complete
				out := &b.members[m].out
				out.sat[k], out.rob[k] = s, r
				s, r = true, math.Inf(1)
				if m++; m < len(b.ends) {
					end = b.ends[m]
				}
			}
		}
	}
}

func (a *batchFlatAndNode) output() batchOut { return a.out }
func (a *batchFlatAndNode) state() int       { return 0 }
func (a *batchFlatAndNode) reset()           {}
func (a *batchFlatAndNode) resetLane(int)    {}

type batchAndNode struct {
	children []batchNode
	out      batchOut
}

//fleetvet:noalloc
func (a *batchAndNode) step(ctx *batchCtx) ([]bool, []float64) {
	n := ctx.n
	sat, rob := a.out.sat[:n], a.out.rob[:n]
	// The first child seeds the fold: true ∧ s = s and math.Min(+Inf, r)
	// = r for every r, NaN and -0 included.
	cs, cr := a.children[0].step(ctx)
	for k := range cs {
		sat[k], rob[k] = cs[k], cr[k]
	}
	for _, c := range a.children[1:] {
		cs, cr := c.step(ctx)
		for k := range cs {
			sat[k] = sat[k] && cs[k]
			rob[k] = math.Min(rob[k], cr[k])
		}
	}
	return sat, rob
}

func (a *batchAndNode) output() batchOut   { return a.out }
func (a *batchAndNode) state() int         { return batchChildrenState(a.children) }
func (a *batchAndNode) reset()             { batchResetChildren(a.children) }
func (a *batchAndNode) resetLane(lane int) { batchResetChildrenLane(a.children, lane) }

type batchOrNode struct {
	children []batchNode
	out      batchOut
}

//fleetvet:noalloc
func (o *batchOrNode) step(ctx *batchCtx) ([]bool, []float64) {
	n := ctx.n
	sat, rob := o.out.sat[:n], o.out.rob[:n]
	// The first child seeds the fold: false ∨ s = s and math.Max(-Inf,
	// r) = r for every r, NaN and +0 included.
	cs, cr := o.children[0].step(ctx)
	for k := range cs {
		sat[k], rob[k] = cs[k], cr[k]
	}
	for _, c := range o.children[1:] {
		cs, cr := c.step(ctx)
		for k := range cs {
			sat[k] = sat[k] || cs[k]
			rob[k] = math.Max(rob[k], cr[k])
		}
	}
	return sat, rob
}

func (o *batchOrNode) output() batchOut   { return o.out }
func (o *batchOrNode) state() int         { return batchChildrenState(o.children) }
func (o *batchOrNode) reset()             { batchResetChildren(o.children) }
func (o *batchOrNode) resetLane(lane int) { batchResetChildrenLane(o.children, lane) }

type batchImpliesNode struct {
	l, r batchNode
	out  batchOut
}

//fleetvet:noalloc
func (im *batchImpliesNode) step(ctx *batchCtx) ([]bool, []float64) {
	ls, lr := im.l.step(ctx)
	rs, rr := im.r.step(ctx)
	sat, rob := im.out.sat[:ctx.n], im.out.rob[:ctx.n]
	for k := range ls {
		sat[k] = !ls[k] || rs[k]
		rob[k] = math.Max(-lr[k], rr[k])
	}
	return sat, rob
}

func (im *batchImpliesNode) output() batchOut { return im.out }
func (im *batchImpliesNode) state() int       { return im.l.state() + im.r.state() }
func (im *batchImpliesNode) reset()           { im.l.reset(); im.r.reset() }
func (im *batchImpliesNode) resetLane(lane int) {
	im.l.resetLane(lane)
	im.r.resetLane(lane)
}

func batchChildrenState(cs []batchNode) int {
	t := 0
	for _, c := range cs {
		t += c.state()
	}
	return t
}

func batchResetChildren(cs []batchNode) {
	for _, c := range cs {
		c.reset()
	}
}

func batchResetChildrenLane(cs []batchNode, lane int) {
	for _, c := range cs {
		c.resetLane(lane)
	}
}

// --- stateful nodes --------------------------------------------------

// batchWindowNode is Once (max) or Historically (min) over its child:
// per-node state is one pair of extremum cores (robustness, and
// satisfaction encoded as 0/1) per lane, iterated session-major per
// push, so the node's dispatch and the child's vector stay hot across
// the active lanes while each lane's arithmetic runs in its own cores.
type batchWindowNode struct {
	pushGuard
	child batchNode
	robC  []extremumCore
	satC  []extremumCore
	out   batchOut
}

func newBatchWindowNode(child batchNode, lo, hi int, isMin bool, width int) *batchWindowNode {
	w := &batchWindowNode{
		child: child,
		robC:  make([]extremumCore, width),
		satC:  make([]extremumCore, width),
		out:   newBatchOut(width),
	}
	for i := range w.robC {
		w.robC[i] = newExtremumCore(lo, hi, isMin)
		w.satC[i] = newExtremumCore(lo, hi, isMin)
	}
	return w
}

//fleetvet:noalloc
func (w *batchWindowNode) step(ctx *batchCtx) ([]bool, []float64) {
	sat, rob := w.out.sat[:ctx.n], w.out.rob[:ctx.n]
	if w.stepped(ctx) {
		return sat, rob
	}
	cs, cr := w.child.step(ctx)
	for k, lane := range ctx.lanes {
		rob[k] = w.robC[lane].push(cr[k])
		sat[k] = w.satC[lane].push(boolToFloat(cs[k])) > 0.5
	}
	return sat, rob
}

func (w *batchWindowNode) output() batchOut { return w.out }
func (w *batchWindowNode) state() int {
	if w.counted() {
		return 0
	}
	t := w.child.state()
	for i := range w.robC {
		t += w.robC[i].state() + w.satC[i].state()
	}
	return t
}

func (w *batchWindowNode) reset() {
	w.seq = 0
	w.child.reset()
	for i := range w.robC {
		w.robC[i].reset()
		w.satC[i].reset()
	}
}

func (w *batchWindowNode) resetLane(lane int) {
	w.child.resetLane(lane)
	w.robC[lane].reset()
	w.satC[lane].reset()
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// batchSinceNode is  L S[a,b] R  over its children, one pair of since
// cores per lane.
type batchSinceNode struct {
	pushGuard
	l, r batchNode
	robC []sinceCore
	satC []sinceCore
	out  batchOut
}

func newBatchSinceNode(l, r batchNode, lo, hi, width int) *batchSinceNode {
	s := &batchSinceNode{
		l: l, r: r,
		robC: make([]sinceCore, width),
		satC: make([]sinceCore, width),
		out:  newBatchOut(width),
	}
	for i := range s.robC {
		s.robC[i] = newSinceCore(lo, hi)
		s.satC[i] = newSinceCore(lo, hi)
	}
	return s
}

//fleetvet:noalloc
func (s *batchSinceNode) step(ctx *batchCtx) ([]bool, []float64) {
	sat, rob := s.out.sat[:ctx.n], s.out.rob[:ctx.n]
	if s.stepped(ctx) {
		return sat, rob
	}
	ls, lr := s.l.step(ctx)
	rs, rr := s.r.step(ctx)
	for k, lane := range ctx.lanes {
		rob[k] = s.robC[lane].push(lr[k], rr[k])
		sat[k] = s.satC[lane].push(boolToFloat(ls[k]), boolToFloat(rs[k])) > 0.5
	}
	return sat, rob
}

func (s *batchSinceNode) output() batchOut { return s.out }
func (s *batchSinceNode) state() int {
	if s.counted() {
		return 0
	}
	t := s.l.state() + s.r.state()
	for i := range s.robC {
		t += s.robC[i].state() + s.satC[i].state()
	}
	return t
}

func (s *batchSinceNode) reset() {
	s.seq = 0
	s.l.reset()
	s.r.reset()
	for i := range s.robC {
		s.robC[i].reset()
		s.satC[i].reset()
	}
}

func (s *batchSinceNode) resetLane(lane int) {
	s.l.resetLane(lane)
	s.r.resetLane(lane)
	s.robC[lane].reset()
	s.satC[lane].reset()
}

// --- group -----------------------------------------------------------

// BatchStreamGroup is the streaming STL engine: it evaluates many
// past-only formulas across any number of independent sessions (lanes)
// in one struct-of-arrays push. The formulas compile into one
// hash-consed node DAG — identical subformulas (same atoms, same
// windows) share a single node whose state and per-push work exist
// once — and every node carries [lanes]-wide state and output vectors
// iterated session-major, so per-push dispatch, push guards, and value
// loads amortize across the active lanes. Every push costs O(1)
// amortized per lane and retained state is O(sum of window lengths) per
// lane, independent of how long the lanes run. Per-lane verdicts and
// robustness are exactly equal (==) to the offline Sat/Robustness over
// that lane's samples since its last reset; lanes reset independently,
// which is what lets a fleet shard recycle a lane for a fresh session
// without touching its neighbors. StreamGroup and Stream are its
// one-lane views.
type BatchStreamGroup struct {
	comp   *batchCompiler
	roots  []batchNode // results land in each root's fixed output vectors
	steps  []batchNode // the roots the flat bank does not already fill
	lastN  int         // active lanes of the last push; 0 before any
	width  int
	pushes uint64
	lanes  []laneCursor
	stamp  uint64 // per-push duplicate-check stamp, bumped on every call
	ctx    batchCtx
}

// laneCursor is one lane's sample count since its last reset (the
// snapshot/restore cursor) and the stamp of the last push that named it.
type laneCursor struct {
	n     int
	stamp uint64
}

// ValidatePeriod reports whether dtMin is usable as a sampling period:
// finite and strictly positive. Every trace, stream, and restored
// monitor checks its period through it, so a NaN, infinite, or negative
// period fails closed at the same door everywhere.
func ValidatePeriod(dtMin float64) error {
	if !(dtMin > 0) || math.IsInf(dtMin, 1) {
		return fmt.Errorf("stl: sampling period %v is not finite and positive", dtMin)
	}
	return nil
}

// NewBatchStreamGroup creates an empty batched group at sampling period
// dtMin minutes with the given lane count.
func NewBatchStreamGroup(dtMin float64, width int) (*BatchStreamGroup, error) {
	if err := ValidatePeriod(dtMin); err != nil {
		return nil, err
	}
	if width <= 0 {
		return nil, fmt.Errorf("stl: batch group needs positive width, got %d", width)
	}
	return &BatchStreamGroup{
		comp:  newBatchCompiler(dtMin, width),
		width: width,
		lanes: make([]laneCursor, width),
	}, nil
}

// Add compiles a past-only formula into the group and returns its
// index. Formulas may only be added before the first push.
func (g *BatchStreamGroup) Add(f Formula) (int, error) {
	if f == nil {
		return 0, fmt.Errorf("stl: nil formula")
	}
	if g.pushes > 0 {
		return 0, fmt.Errorf("stl: cannot add formulas to a running group")
	}
	if !PastOnly(f) {
		return 0, fmt.Errorf("stl: formula %q needs future knowledge; cannot monitor online", f)
	}
	root, err := g.comp.compile(f)
	if err != nil {
		return 0, err
	}
	g.roots = append(g.roots, root)
	if _, ok := root.(*batchFlatAndNode); !ok {
		g.steps = append(g.steps, root)
	}
	return len(g.roots) - 1, nil
}

// Size returns the number of formulas in the group.
func (g *BatchStreamGroup) Size() int { return len(g.roots) }

// Width returns the lane count.
func (g *BatchStreamGroup) Width() int { return g.width }

// Len returns the number of batched pushes consumed.
func (g *BatchStreamGroup) Len() int { return int(g.pushes) }

// Dt returns the sampling period in minutes.
func (g *BatchStreamGroup) Dt() float64 { return g.comp.dt }

// Vars returns the variable table: PushLanes values are indexed by this
// order. The table grows only in Add, never during pushes.
func (g *BatchStreamGroup) Vars() []string { return g.comp.vars }

// VarIndex resolves a variable name to its value-matrix row.
func (g *BatchStreamGroup) VarIndex(name string) (int, bool) {
	i, ok := g.comp.varIdx[name]
	return i, ok
}

// PushLanes consumes one sample for each of the given lanes: vals is
// the struct-of-arrays value matrix, vals[v*len(lanes)+k] holding
// variable v (in Vars order) of lane lanes[k]. Lanes absent from the
// call do not advance. A duplicated lane ID is rejected before any
// operator state advances — it would double-advance that lane's
// operator state, silently corrupting its windows.
//
//fleetvet:noalloc
func (g *BatchStreamGroup) PushLanes(lanes []int, vals []float64) error {
	n := len(lanes)
	if n == 0 {
		return fmt.Errorf("stl: empty batch push")
	}
	if want := len(g.comp.vars) * n; len(vals) != want {
		return fmt.Errorf("stl: value matrix has %d entries, want %d (%d variables x %d lanes)",
			len(vals), want, len(g.comp.vars), n)
	}
	// One pass validates and advances the lane cursors: a fresh stamp per
	// call marks the lanes named so far, so a repeat is caught without a
	// clearing pass, and a rejected push rolls back the cursors it bumped.
	g.stamp++
	for i, lane := range lanes {
		if lane < 0 || lane >= g.width || g.lanes[lane].stamp == g.stamp {
			for _, l := range lanes[:i] {
				g.lanes[l].n--
			}
			if lane < 0 || lane >= g.width {
				return fmt.Errorf("stl: lane %d out of range [0, %d)", lane, g.width)
			}
			return fmt.Errorf("stl: duplicate lane %d in one push", lane)
		}
		g.lanes[lane].stamp = g.stamp
		g.lanes[lane].n++
	}
	g.pushes++
	g.lastN = n
	g.ctx.lanes, g.ctx.vals = lanes, vals
	g.ctx.n, g.ctx.seq = n, g.pushes
	g.comp.flat.step(&g.ctx)
	for _, r := range g.steps {
		r.step(&g.ctx)
	}
	g.ctx.lanes, g.ctx.vals = nil, nil
	return nil
}

// Sats returns formula i's satisfaction vector at the last push,
// indexed like the lanes slice that push was called with. The slice is
// reused by the next push; callers that retain it must copy.
func (g *BatchStreamGroup) Sats(i int) []bool {
	if g.lastN == 0 {
		return nil
	}
	return g.roots[i].output().sat[:g.lastN]
}

// Robs returns formula i's robustness vector at the last push, indexed
// like the lanes slice that push was called with. The slice is reused
// by the next push; callers that retain it must copy.
func (g *BatchStreamGroup) Robs(i int) []float64 {
	if g.lastN == 0 {
		return nil
	}
	return g.roots[i].output().rob[:g.lastN]
}

// Outputs returns formula i's result vectors: width-long slices fixed
// for the group's lifetime, whose entries [0, n) hold the satisfaction
// and robustness of the last push's n lanes, indexed like its lanes
// slice. Callers that read results every push can resolve them once.
func (g *BatchStreamGroup) Outputs(i int) (sat []bool, rob []float64) {
	o := g.roots[i].output()
	return o.sat, o.rob
}

// StateSamples returns the total buffered per-sample entries across the
// group's unique operator nodes, summed over all lanes (hash-consed
// subformulas count once).
func (g *BatchStreamGroup) StateSamples() int {
	for _, t := range g.comp.temporal {
		t.guard().visited = false
	}
	t := 0
	for _, r := range g.roots {
		t += r.state()
	}
	return t
}

// ResetLane clears one lane's operator state, as if that lane had seen
// no samples; other lanes are untouched.
func (g *BatchStreamGroup) ResetLane(lane int) {
	for _, r := range g.roots {
		r.resetLane(lane)
	}
	g.lanes[lane].n = 0
}

// LaneLen returns the number of samples lane has consumed since its
// last reset — the per-lane analogue of StreamGroup.Len, and the cursor
// a lane snapshot records.
func (g *BatchStreamGroup) LaneLen(lane int) int { return g.lanes[lane].n }

// Reset clears all operator state in every lane. Sats/Robs return nil
// again until the next push, as on a fresh group.
func (g *BatchStreamGroup) Reset() {
	for _, r := range g.roots {
		r.reset()
	}
	g.lastN = 0
	for i := range g.lanes {
		g.lanes[i].n = 0
	}
	g.pushes = 0
}
