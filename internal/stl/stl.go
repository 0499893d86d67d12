package stl

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Trace is a uniformly sampled multi-variable signal.
type Trace struct {
	dt   float64
	n    int
	vars map[string][]float64
}

// NewTrace creates an empty trace with sampling period dtMin minutes.
func NewTrace(dtMin float64) (*Trace, error) {
	if err := ValidatePeriod(dtMin); err != nil {
		return nil, err
	}
	return &Trace{dt: dtMin, vars: make(map[string][]float64)}, nil
}

// Dt returns the sampling period in minutes.
func (t *Trace) Dt() float64 { return t.dt }

// Len returns the number of samples.
func (t *Trace) Len() int { return t.n }

// Set installs a named series. All series must share one length.
func (t *Trace) Set(name string, values []float64) error {
	if len(t.vars) > 0 && t.n != len(values) {
		return fmt.Errorf("stl: series %q has %d samples, trace has %d", name, len(values), t.n)
	}
	t.vars[name] = values
	t.n = len(values)
	return nil
}

// Append extends every named series by one sample. Missing names get NaN.
func (t *Trace) Append(sample map[string]float64) {
	for name := range sample { //fleetvet:nondeterministic order-independent: each new name is backfilled in isolation
		if _, ok := t.vars[name]; !ok {
			// Backfill a new variable with NaN for earlier samples.
			t.vars[name] = make([]float64, t.n)
			for i := range t.vars[name] {
				t.vars[name][i] = math.NaN()
			}
		}
	}
	for name, series := range t.vars { //fleetvet:nondeterministic order-independent: each series is extended in isolation
		v, ok := sample[name]
		if !ok {
			v = math.NaN()
		}
		t.vars[name] = append(series, v)
	}
	t.n++
}

// Value returns the value of a variable at sample i.
func (t *Trace) Value(name string, i int) (float64, error) {
	series, ok := t.vars[name]
	if !ok {
		return 0, fmt.Errorf("stl: unknown variable %q", name)
	}
	if i < 0 || i >= len(series) {
		return 0, fmt.Errorf("stl: index %d out of range for %q (len %d)", i, name, len(series))
	}
	return series[i], nil
}

// Names returns the sorted variable names.
func (t *Trace) Names() []string {
	names := make([]string, 0, len(t.vars))
	for n := range t.vars { //fleetvet:nondeterministic order-independent: names are sorted before return
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Formula is a bounded-time STL formula node.
type Formula interface {
	// Sat evaluates boolean satisfaction at sample i.
	Sat(tr *Trace, i int) (bool, error)
	// Robustness evaluates the quantitative semantics at sample i;
	// positive means satisfied with margin, negative violated.
	Robustness(tr *Trace, i int) (float64, error)
	// String renders the formula in the parser's concrete syntax.
	String() string
}

// CmpOp is a comparison operator of an atomic predicate.
type CmpOp int

// Comparison operators.
const (
	OpLT CmpOp = iota + 1
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpEQ:
		return "=="
	case OpNE:
		return "!="
	default:
		return "?"
	}
}

// Atom is the atomic predicate  var op threshold.
type Atom struct {
	Var       string
	Op        CmpOp
	Threshold float64
}

// Sat implements Formula.
func (a *Atom) Sat(tr *Trace, i int) (bool, error) {
	v, err := tr.Value(a.Var, i)
	if err != nil {
		return false, err
	}
	switch a.Op {
	case OpLT:
		return v < a.Threshold, nil
	case OpLE:
		return v <= a.Threshold, nil
	case OpGT:
		return v > a.Threshold, nil
	case OpGE:
		return v >= a.Threshold, nil
	case OpEQ:
		return v == a.Threshold, nil
	case OpNE:
		return v != a.Threshold, nil
	default:
		return false, fmt.Errorf("stl: invalid comparison op %d", int(a.Op))
	}
}

// Robustness implements Formula. Equality atoms use the standard
// -|v-θ| encoding (and its negation for !=).
func (a *Atom) Robustness(tr *Trace, i int) (float64, error) {
	v, err := tr.Value(a.Var, i)
	if err != nil {
		return 0, err
	}
	switch a.Op {
	case OpLT, OpLE:
		return a.Threshold - v, nil
	case OpGT, OpGE:
		return v - a.Threshold, nil
	case OpEQ:
		return -math.Abs(v - a.Threshold), nil
	case OpNE:
		return math.Abs(v - a.Threshold), nil
	default:
		return 0, fmt.Errorf("stl: invalid comparison op %d", int(a.Op))
	}
}

// String implements Formula.
func (a *Atom) String() string {
	return fmt.Sprintf("%s %s %s", a.Var, a.Op, trimFloat(a.Threshold))
}

// Const is the constant true/false formula.
type Const bool

// Sat implements Formula.
func (c Const) Sat(*Trace, int) (bool, error) { return bool(c), nil }

// Robustness implements Formula.
func (c Const) Robustness(*Trace, int) (float64, error) {
	if c {
		return math.Inf(1), nil
	}
	return math.Inf(-1), nil
}

// String implements Formula.
func (c Const) String() string {
	if c {
		return "true"
	}
	return "false"
}

// Not negates a formula.
type Not struct{ Child Formula }

// Sat implements Formula.
func (n *Not) Sat(tr *Trace, i int) (bool, error) {
	s, err := n.Child.Sat(tr, i)
	return !s, err
}

// Robustness implements Formula.
func (n *Not) Robustness(tr *Trace, i int) (float64, error) {
	r, err := n.Child.Robustness(tr, i)
	return -r, err
}

// String implements Formula.
func (n *Not) String() string { return "not (" + n.Child.String() + ")" }

// And is n-ary conjunction.
type And struct{ Children []Formula }

// NewAnd builds a conjunction.
func NewAnd(children ...Formula) *And { return &And{Children: children} }

// Sat implements Formula.
func (a *And) Sat(tr *Trace, i int) (bool, error) {
	for _, c := range a.Children {
		s, err := c.Sat(tr, i)
		if err != nil {
			return false, err
		}
		if !s {
			return false, nil
		}
	}
	return true, nil
}

// Robustness implements Formula (minimum over conjuncts).
func (a *And) Robustness(tr *Trace, i int) (float64, error) {
	r := math.Inf(1)
	for _, c := range a.Children {
		cr, err := c.Robustness(tr, i)
		if err != nil {
			return 0, err
		}
		r = math.Min(r, cr)
	}
	return r, nil
}

// String implements Formula.
func (a *And) String() string { return joinChildren(a.Children, " and ") }

// Or is n-ary disjunction.
type Or struct{ Children []Formula }

// NewOr builds a disjunction.
func NewOr(children ...Formula) *Or { return &Or{Children: children} }

// Sat implements Formula.
func (o *Or) Sat(tr *Trace, i int) (bool, error) {
	for _, c := range o.Children {
		s, err := c.Sat(tr, i)
		if err != nil {
			return false, err
		}
		if s {
			return true, nil
		}
	}
	return false, nil
}

// Robustness implements Formula (maximum over disjuncts).
func (o *Or) Robustness(tr *Trace, i int) (float64, error) {
	r := math.Inf(-1)
	for _, c := range o.Children {
		cr, err := c.Robustness(tr, i)
		if err != nil {
			return 0, err
		}
		r = math.Max(r, cr)
	}
	return r, nil
}

// String implements Formula.
func (o *Or) String() string { return joinChildren(o.Children, " or ") }

// Implies is material implication, encoded as ¬L ∨ R.
type Implies struct{ L, R Formula }

// Sat implements Formula.
func (im *Implies) Sat(tr *Trace, i int) (bool, error) {
	l, err := im.L.Sat(tr, i)
	if err != nil {
		return false, err
	}
	if !l {
		return true, nil
	}
	return im.R.Sat(tr, i)
}

// Robustness implements Formula.
func (im *Implies) Robustness(tr *Trace, i int) (float64, error) {
	lr, err := im.L.Robustness(tr, i)
	if err != nil {
		return 0, err
	}
	rr, err := im.R.Robustness(tr, i)
	if err != nil {
		return 0, err
	}
	return math.Max(-lr, rr), nil
}

// String implements Formula.
func (im *Implies) String() string {
	return "(" + im.L.String() + ") => (" + im.R.String() + ")"
}

// Bounds is a temporal interval [A,B] in minutes. B may be +Inf, which
// clamps to the end (future operators) or start (past operators) of the
// trace.
type Bounds struct{ A, B float64 }

// Unbounded is [0, +inf).
var Unbounded = Bounds{A: 0, B: math.Inf(1)}

func (b Bounds) valid() error {
	if !(b.A >= 0) || !(b.B >= b.A) { // negated so NaN bounds fail too
		return fmt.Errorf("stl: invalid bounds [%v,%v]", b.A, b.B)
	}
	return nil
}

// window converts the minute bounds to inclusive sample offsets.
func (b Bounds) window(dt float64, horizon int) (lo, hi int, err error) {
	if err := b.valid(); err != nil {
		return 0, 0, err
	}
	if lo, err = sampleOffset(math.Ceil(b.A/dt-1e-9), b, dt); err != nil {
		return 0, 0, err
	}
	if math.IsInf(b.B, 1) {
		return lo, horizon, nil
	}
	if hi, err = sampleOffset(math.Floor(b.B/dt+1e-9), b, dt); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// sampleOffset converts a rounded bound-over-period quotient to an int,
// failing when it does not fit (an infinite lower bound, or a period so
// small the offset overflows) instead of letting the conversion wrap.
func sampleOffset(q float64, b Bounds, dt float64) (int, error) {
	if !(q < float64(math.MaxInt)) {
		return 0, fmt.Errorf("stl: bounds %v at dt=%v give a sample offset %v that does not fit an int", b, dt, q)
	}
	return int(q), nil
}

// String renders the bounds.
func (b Bounds) String() string {
	if b.A == 0 && math.IsInf(b.B, 1) {
		return ""
	}
	hi := "inf"
	if !math.IsInf(b.B, 1) {
		hi = trimFloat(b.B)
	}
	return "[" + trimFloat(b.A) + "," + hi + "]"
}

// Globally is  G[a,b] φ : φ holds at every sample within the window.
type Globally struct {
	Bounds Bounds
	Child  Formula
}

// Sat implements Formula.
func (g *Globally) Sat(tr *Trace, i int) (bool, error) {
	lo, hi, err := g.Bounds.window(tr.Dt(), tr.Len()-1-i)
	if err != nil {
		return false, err
	}
	for j := i + lo; j <= i+hi && j < tr.Len(); j++ {
		if j < 0 {
			continue
		}
		s, err := g.Child.Sat(tr, j)
		if err != nil {
			return false, err
		}
		if !s {
			return false, nil
		}
	}
	return true, nil
}

// Robustness implements Formula.
func (g *Globally) Robustness(tr *Trace, i int) (float64, error) {
	lo, hi, err := g.Bounds.window(tr.Dt(), tr.Len()-1-i)
	if err != nil {
		return 0, err
	}
	r := math.Inf(1)
	for j := i + lo; j <= i+hi && j < tr.Len(); j++ {
		if j < 0 {
			continue
		}
		cr, err := g.Child.Robustness(tr, j)
		if err != nil {
			return 0, err
		}
		r = math.Min(r, cr)
	}
	return r, nil
}

// String implements Formula.
func (g *Globally) String() string {
	return "G" + g.Bounds.String() + " (" + g.Child.String() + ")"
}

// Eventually is  F[a,b] φ : φ holds at some sample within the window.
type Eventually struct {
	Bounds Bounds
	Child  Formula
}

// Sat implements Formula.
func (f *Eventually) Sat(tr *Trace, i int) (bool, error) {
	lo, hi, err := f.Bounds.window(tr.Dt(), tr.Len()-1-i)
	if err != nil {
		return false, err
	}
	for j := i + lo; j <= i+hi && j < tr.Len(); j++ {
		if j < 0 {
			continue
		}
		s, err := f.Child.Sat(tr, j)
		if err != nil {
			return false, err
		}
		if s {
			return true, nil
		}
	}
	return false, nil
}

// Robustness implements Formula.
func (f *Eventually) Robustness(tr *Trace, i int) (float64, error) {
	lo, hi, err := f.Bounds.window(tr.Dt(), tr.Len()-1-i)
	if err != nil {
		return 0, err
	}
	r := math.Inf(-1)
	for j := i + lo; j <= i+hi && j < tr.Len(); j++ {
		if j < 0 {
			continue
		}
		cr, err := f.Child.Robustness(tr, j)
		if err != nil {
			return 0, err
		}
		r = math.Max(r, cr)
	}
	return r, nil
}

// String implements Formula.
func (f *Eventually) String() string {
	return "F" + f.Bounds.String() + " (" + f.Child.String() + ")"
}

// Until is  L U[a,b] R : R holds at some j in the window and L holds at
// every sample from i+1 through j.
type Until struct {
	Bounds Bounds
	L, R   Formula
}

// Sat implements Formula.
func (u *Until) Sat(tr *Trace, i int) (bool, error) {
	lo, hi, err := u.Bounds.window(tr.Dt(), tr.Len()-1-i)
	if err != nil {
		return false, err
	}
	for j := i + lo; j <= i+hi && j < tr.Len(); j++ {
		if j < i {
			continue
		}
		rs, err := u.R.Sat(tr, j)
		if err != nil {
			return false, err
		}
		if rs {
			ok := true
			for k := i; k < j; k++ {
				ls, err := u.L.Sat(tr, k)
				if err != nil {
					return false, err
				}
				if !ls {
					ok = false
					break
				}
			}
			if ok {
				return true, nil
			}
		}
	}
	return false, nil
}

// Robustness implements Formula.
func (u *Until) Robustness(tr *Trace, i int) (float64, error) {
	lo, hi, err := u.Bounds.window(tr.Dt(), tr.Len()-1-i)
	if err != nil {
		return 0, err
	}
	best := math.Inf(-1)
	for j := i + lo; j <= i+hi && j < tr.Len(); j++ {
		if j < i {
			continue
		}
		rr, err := u.R.Robustness(tr, j)
		if err != nil {
			return 0, err
		}
		m := rr
		for k := i; k < j; k++ {
			lr, err := u.L.Robustness(tr, k)
			if err != nil {
				return 0, err
			}
			m = math.Min(m, lr)
		}
		best = math.Max(best, m)
	}
	return best, nil
}

// String implements Formula.
func (u *Until) String() string {
	return "(" + u.L.String() + ") U" + u.Bounds.String() + " (" + u.R.String() + ")"
}

// Since is the past-time dual  L S[a,b] R : R held at some j ≤ i within
// the window, and L has held at every sample after j through i. It is
// the operator of the paper's HMS formula (Eq. 2).
type Since struct {
	Bounds Bounds
	L, R   Formula
}

// Sat implements Formula.
func (s *Since) Sat(tr *Trace, i int) (bool, error) {
	lo, hi, err := s.Bounds.window(tr.Dt(), i)
	if err != nil {
		return false, err
	}
	for off := lo; off <= hi; off++ {
		j := i - off
		if j < 0 {
			break
		}
		rs, err := s.R.Sat(tr, j)
		if err != nil {
			return false, err
		}
		if rs {
			ok := true
			for k := j + 1; k <= i; k++ {
				ls, err := s.L.Sat(tr, k)
				if err != nil {
					return false, err
				}
				if !ls {
					ok = false
					break
				}
			}
			if ok {
				return true, nil
			}
		}
	}
	return false, nil
}

// Robustness implements Formula.
func (s *Since) Robustness(tr *Trace, i int) (float64, error) {
	lo, hi, err := s.Bounds.window(tr.Dt(), i)
	if err != nil {
		return 0, err
	}
	best := math.Inf(-1)
	for off := lo; off <= hi; off++ {
		j := i - off
		if j < 0 {
			break
		}
		rr, err := s.R.Robustness(tr, j)
		if err != nil {
			return 0, err
		}
		m := rr
		for k := j + 1; k <= i; k++ {
			lr, err := s.L.Robustness(tr, k)
			if err != nil {
				return 0, err
			}
			m = math.Min(m, lr)
		}
		best = math.Max(best, m)
	}
	return best, nil
}

// String implements Formula.
func (s *Since) String() string {
	return "(" + s.L.String() + ") S" + s.Bounds.String() + " (" + s.R.String() + ")"
}

// Once is the past-time eventually  O[a,b] φ.
type Once struct {
	Bounds Bounds
	Child  Formula
}

// Sat implements Formula.
func (o *Once) Sat(tr *Trace, i int) (bool, error) {
	lo, hi, err := o.Bounds.window(tr.Dt(), i)
	if err != nil {
		return false, err
	}
	for off := lo; off <= hi; off++ {
		j := i - off
		if j < 0 {
			break
		}
		s, err := o.Child.Sat(tr, j)
		if err != nil {
			return false, err
		}
		if s {
			return true, nil
		}
	}
	return false, nil
}

// Robustness implements Formula.
func (o *Once) Robustness(tr *Trace, i int) (float64, error) {
	lo, hi, err := o.Bounds.window(tr.Dt(), i)
	if err != nil {
		return 0, err
	}
	r := math.Inf(-1)
	for off := lo; off <= hi; off++ {
		j := i - off
		if j < 0 {
			break
		}
		cr, err := o.Child.Robustness(tr, j)
		if err != nil {
			return 0, err
		}
		r = math.Max(r, cr)
	}
	return r, nil
}

// String implements Formula.
func (o *Once) String() string {
	return "O" + o.Bounds.String() + " (" + o.Child.String() + ")"
}

// Historically is the past-time globally  H[a,b] φ.
type Historically struct {
	Bounds Bounds
	Child  Formula
}

// Sat implements Formula.
func (h *Historically) Sat(tr *Trace, i int) (bool, error) {
	lo, hi, err := h.Bounds.window(tr.Dt(), i)
	if err != nil {
		return false, err
	}
	for off := lo; off <= hi; off++ {
		j := i - off
		if j < 0 {
			break
		}
		s, err := h.Child.Sat(tr, j)
		if err != nil {
			return false, err
		}
		if !s {
			return false, nil
		}
	}
	return true, nil
}

// Robustness implements Formula.
func (h *Historically) Robustness(tr *Trace, i int) (float64, error) {
	lo, hi, err := h.Bounds.window(tr.Dt(), i)
	if err != nil {
		return 0, err
	}
	r := math.Inf(1)
	for off := lo; off <= hi; off++ {
		j := i - off
		if j < 0 {
			break
		}
		cr, err := h.Child.Robustness(tr, j)
		if err != nil {
			return 0, err
		}
		r = math.Min(r, cr)
	}
	return r, nil
}

// String implements Formula.
func (h *Historically) String() string {
	return "H" + h.Bounds.String() + " (" + h.Child.String() + ")"
}

// SatTrace evaluates G[0,end] φ over the whole trace: the trace-level
// satisfaction used when checking SCS rules offline.
func SatTrace(f Formula, tr *Trace) (bool, error) {
	g := &Globally{Bounds: Unbounded, Child: f}
	return g.Sat(tr, 0)
}

// RobustnessTrace evaluates the robustness of G[0,end] φ over the trace.
func RobustnessTrace(f Formula, tr *Trace) (float64, error) {
	g := &Globally{Bounds: Unbounded, Child: f}
	return g.Robustness(tr, 0)
}

func joinChildren(children []Formula, sep string) string {
	parts := make([]string, len(children))
	for i, c := range children {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, sep)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
