package stl

import (
	"math"
	"testing"
)

func TestStreamRejectsInvalid(t *testing.T) {
	if _, err := NewStream(nil, 5); err == nil {
		t.Error("nil formula should be rejected")
	}
	if _, err := NewStream(MustParse("x > 1"), 0); err == nil {
		t.Error("zero dt should be rejected")
	}
	if _, err := NewStream(MustParse("F (x > 1)"), 5); err == nil {
		t.Error("future formula should be rejected")
	}
	if _, err := NewStream(MustParse("G (x > 1)"), 5); err == nil {
		t.Error("future formula should be rejected")
	}
	if _, err := NewStream(&Since{Bounds: Bounds{A: 3, B: 1}, L: Const(true), R: Const(true)}, 5); err == nil {
		t.Error("invalid bounds should be rejected")
	}
}

func TestStreamMissingVariable(t *testing.T) {
	s, err := NewStream(MustParse("O[0,30] (x > 1 and y < 2)"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Push(map[string]float64{"x": 3}); err == nil {
		t.Error("missing variable should error")
	}
	// The rejected sample must not have advanced any operator state:
	// a corrected push behaves as the first sample of the stream.
	if s.Len() != 0 {
		t.Errorf("Len after rejected push = %d, want 0", s.Len())
	}
	sat, rob, err := s.Push(map[string]float64{"x": 3, "y": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sat || rob != 1 {
		t.Errorf("corrected push: sat=%v rob=%v, want true/1 (state was poisoned)", sat, rob)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestStreamOnceBounded(t *testing.T) {
	// O[5,10] (x > 0) at dt=5: sample offsets [1,2].
	s, err := NewStream(MustParse("O[5,10] (x > 0)"), 5)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{1, -1, -1, -1, 1, -1, -1}
	want := []bool{false, true, true, false, false, true, true}
	for i, x := range xs {
		sat, _, err := s.Push(map[string]float64{"x": x})
		if err != nil {
			t.Fatal(err)
		}
		if sat != want[i] {
			t.Errorf("step %d: sat=%v, want %v", i, sat, want[i])
		}
	}
}

func TestStreamEmptyFractionalWindow(t *testing.T) {
	// [1.2,1.4] minutes at dt=1 has no sample offsets: Once is always
	// false (-Inf), Historically always true (+Inf) — exactly the
	// offline empty-window semantics.
	once, err := NewStream(&Once{Bounds: Bounds{A: 1.2, B: 1.4}, Child: MustParse("x > 0")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := NewStream(&Historically{Bounds: Bounds{A: 1.2, B: 1.4}, Child: MustParse("x > 0")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	since, err := NewStream(&Since{Bounds: Bounds{A: 1.2, B: 1.4}, L: MustParse("x > 0"), R: MustParse("x > 0")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sample := map[string]float64{"x": 1}
		if sat, rob, _ := once.Push(sample); sat || !math.IsInf(rob, -1) {
			t.Errorf("once over empty window: sat=%v rob=%v", sat, rob)
		}
		if sat, rob, _ := hist.Push(sample); !sat || !math.IsInf(rob, 1) {
			t.Errorf("historically over empty window: sat=%v rob=%v", sat, rob)
		}
		if sat, rob, _ := since.Push(sample); sat || !math.IsInf(rob, -1) {
			t.Errorf("since over empty window: sat=%v rob=%v", sat, rob)
		}
	}
}

func TestStreamReset(t *testing.T) {
	s, err := NewStream(MustParse("(x > 5) S (y == 1)"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Push(map[string]float64{"x": 9, "y": 1}); err != nil {
		t.Fatal(err)
	}
	sat, _, err := s.Push(map[string]float64{"x": 9, "y": 0})
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Fatal("since should hold before reset")
	}
	s.Reset()
	if s.Len() != 0 {
		t.Errorf("Len after reset = %d", s.Len())
	}
	if _, _, err := s.Last(); err == nil {
		t.Error("Last after reset should error")
	}
	// The witness from before the reset must be gone.
	sat, _, err = s.Push(map[string]float64{"x": 9, "y": 0})
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Error("since held across Reset: stale operator state")
	}
}

// boundedStateFormula mixes every stateful operator shape: bounded and
// unbounded windows, nested temporal operators, and Since with a
// nonzero lower bound.
const boundedStateFormula = "(H[0,120] (x > 0)) and ((x > 2) S (y < 1)) " +
	"and O[15,45] (y > 3) and ((y < 8) S[10,90] (O[0,30] (x > 5)))"

// TestStreamBoundedStateLongSession is the continuous-serving-mode
// memory contract: after the windows saturate, pushing 100x more
// samples must not grow operator state at all, and the steady-state
// push path must not allocate.
func TestStreamBoundedStateLongSession(t *testing.T) {
	m, err := NewOnlineMonitor(MustParse(boundedStateFormula), 5)
	if err != nil {
		t.Fatal(err)
	}
	sample := make(map[string]float64, 2)
	push := func(i int) {
		sample["x"] = float64((i*7919)%23) - 10
		sample["y"] = float64((i*104729)%19) - 9
		if _, err := m.Push(sample); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1_000; i++ {
		push(i)
	}
	stateAt1k := m.StateSamples()
	allocsAt1k := testing.AllocsPerRun(200, func() { push(m.Len()) })

	for m.Len() < 100_000 {
		push(m.Len())
	}
	stateAt100k := m.StateSamples()
	allocsAt100k := testing.AllocsPerRun(200, func() { push(m.Len()) })

	// Deque occupancy is data-dependent within the window bound, so the
	// invariant is a cap, not exact equality: the formula's widest
	// window is 120 min = 24 samples and a handful of operator cores
	// each hold at most O(window) entries — after 100x more pushes the
	// state must still sit under that same small constant.
	const stateCap = 400
	if stateAt1k > stateCap || stateAt100k > stateCap {
		t.Errorf("state is not O(window): %d samples at 1k pushes, %d at 100k",
			stateAt1k, stateAt100k)
	}
	if allocsAt1k != 0 || allocsAt100k != 0 {
		t.Errorf("steady-state push allocates: %.1f allocs/push at 1k, %.1f at 100k",
			allocsAt1k, allocsAt100k)
	}
}

// TestStreamMatchesTraceMonitor pins the rewired OnlineMonitor to the
// legacy trace-backed monitor on a shared sample stream.
func TestStreamMatchesTraceMonitor(t *testing.T) {
	f := MustParse("((x > 2) S[0,30] (y < 1)) and H[0,20] (x > -8)")
	stream, err := NewOnlineMonitor(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := NewTraceMonitor(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sample := map[string]float64{
			"x": float64((i*31)%17) - 8,
			"y": float64((i*17)%13) - 6,
		}
		gotSat, err := stream.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		wantSat, err := legacy.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if gotSat != wantSat {
			t.Fatalf("step %d: streaming sat=%v, legacy %v", i, gotSat, wantSat)
		}
		gotRob, err := stream.Robustness()
		if err != nil {
			t.Fatal(err)
		}
		wantRob, err := legacy.Robustness()
		if err != nil {
			t.Fatal(err)
		}
		if gotRob != wantRob {
			t.Fatalf("step %d: streaming rob=%v, legacy %v", i, gotRob, wantRob)
		}
	}
	gv, ge := stream.Violations()
	wv, we := legacy.Violations()
	if gv != wv || ge != we {
		t.Errorf("violations %d/%d, legacy %d/%d", gv, ge, wv, we)
	}
}

// groupFormulas is a formula family with heavy subformula overlap: the
// same bounded windows and Since terms appear across members, so the
// hash-consed group must hold their operator state exactly once.
var groupFormulas = []string{
	"(O[0,60] (x > 5)) and (y < 2)",
	"(O[0,60] (x > 5)) and (y > -4)",
	"not (O[0,60] (x > 5))",
	"((x > 2) S[0,45] (y < 1)) and (O[0,60] (x > 5))",
	"((x > 2) S[0,45] (y < 1)) or (H[0,30] (y < 8))",
	"H[0,30] (y < 8)",
}

// TestStreamGroupMatchesIndividualStreams: hash-consing must not change
// a single verdict or margin — every group member must equal its own
// standalone Stream at every pushed sample.
func TestStreamGroupMatchesIndividualStreams(t *testing.T) {
	g, err := NewStreamGroup(5)
	if err != nil {
		t.Fatal(err)
	}
	var solo []*Stream
	for _, src := range groupFormulas {
		f := MustParse(src)
		idx, err := g.Add(f)
		if err != nil {
			t.Fatal(err)
		}
		if idx != len(solo) {
			t.Fatalf("Add returned %d, want %d", idx, len(solo))
		}
		s, err := NewStream(f, 5)
		if err != nil {
			t.Fatal(err)
		}
		solo = append(solo, s)
	}
	for i := 0; i < 500; i++ {
		sample := map[string]float64{
			"x": float64((i*7919)%23) - 10,
			"y": float64((i*104729)%19) - 9,
		}
		if err := g.Push(sample); err != nil {
			t.Fatal(err)
		}
		for k, s := range solo {
			wantSat, wantRob, err := s.Push(sample)
			if err != nil {
				t.Fatal(err)
			}
			if g.Sat(k) != wantSat || g.Rob(k) != wantRob {
				t.Fatalf("step %d formula %d: group (%v, %v), solo (%v, %v)",
					i, k, g.Sat(k), g.Rob(k), wantSat, wantRob)
			}
		}
	}
}

// TestStreamGroupSharesState: the group's total buffered state must be
// well below the sum of the standalone streams' — identical windowed
// subformulas hold one stateful node (ROADMAP "Multi-formula sharing").
func TestStreamGroupSharesState(t *testing.T) {
	g, err := NewStreamGroup(5)
	if err != nil {
		t.Fatal(err)
	}
	var solo []*Stream
	for _, src := range groupFormulas {
		f := MustParse(src)
		if _, err := g.Add(f); err != nil {
			t.Fatal(err)
		}
		s, err := NewStream(f, 5)
		if err != nil {
			t.Fatal(err)
		}
		solo = append(solo, s)
	}
	sample := make(map[string]float64, 2)
	for i := 0; i < 200; i++ { // saturate every window
		sample["x"] = float64((i*31)%17) - 8
		sample["y"] = float64((i*17)%13) - 6
		if err := g.Push(sample); err != nil {
			t.Fatal(err)
		}
		for _, s := range solo {
			if _, _, err := s.Push(sample); err != nil {
				t.Fatal(err)
			}
		}
	}
	soloTotal := 0
	for _, s := range solo {
		soloTotal += s.StateSamples()
	}
	shared := g.StateSamples()
	if shared <= 0 {
		t.Fatal("group reports no state despite windowed formulas")
	}
	// O[0,60](x>5) appears in 4 formulas, (x>2)S[0,45](y<1) in 2,
	// H[0,30](y<8) in 2: the dedup factor must be clearly visible, not
	// marginal.
	if shared*3 > soloTotal*2 {
		t.Errorf("hash-consing saved too little state: group %d vs solo sum %d", shared, soloTotal)
	}
	// And the group must stay allocation-free and bounded like a single
	// stream.
	allocs := testing.AllocsPerRun(200, func() {
		if err := g.Push(sample); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("group push allocates %.1f allocs", allocs)
	}
}

// TestStreamGroupValidation covers the group's error paths.
func TestStreamGroupValidation(t *testing.T) {
	if _, err := NewStreamGroup(0); err == nil {
		t.Error("zero dt should be rejected")
	}
	g, err := NewStreamGroup(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(nil); err == nil {
		t.Error("nil formula should be rejected")
	}
	if _, err := g.Add(MustParse("F (x > 1)")); err == nil {
		t.Error("future formula should be rejected")
	}
	if _, err := g.Add(MustParse("x > 1")); err != nil {
		t.Fatal(err)
	}
	if err := g.Push(map[string]float64{"y": 1}); err == nil {
		t.Error("missing variable should error")
	}
	if err := g.PushVector([]float64{1, 2}); err == nil {
		t.Error("wrong vector width should error")
	}
	if err := g.Push(map[string]float64{"x": 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(MustParse("x > 2")); err == nil {
		t.Error("Add after Push should be rejected")
	}
}

// TestStreamGroupReset: reset must clear shared operator state exactly
// once and leave the group replayable from scratch.
func TestStreamGroupReset(t *testing.T) {
	g, err := NewStreamGroup(5)
	if err != nil {
		t.Fatal(err)
	}
	// Two formulas sharing one Since witness.
	if _, err := g.Add(MustParse("(x > 5) S (y == 1)")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(MustParse("not ((x > 5) S (y == 1))")); err != nil {
		t.Fatal(err)
	}
	if err := g.Push(map[string]float64{"x": 9, "y": 1}); err != nil {
		t.Fatal(err)
	}
	if !g.Sat(0) || g.Sat(1) {
		t.Fatal("since should hold before reset")
	}
	g.Reset()
	if g.Len() != 0 {
		t.Errorf("Len after reset = %d", g.Len())
	}
	if err := g.Push(map[string]float64{"x": 9, "y": 0}); err != nil {
		t.Fatal(err)
	}
	if g.Sat(0) {
		t.Error("since held across Reset: stale shared operator state")
	}
}

// TestSamplingPeriodFailsClosed: every constructor that takes a sampling
// period rejects one that is NaN, infinite, or not positive.
func TestSamplingPeriodFailsClosed(t *testing.T) {
	f := MustParse("O[0,30] (x > 1)")
	for _, dt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if err := ValidatePeriod(dt); err == nil {
			t.Errorf("ValidatePeriod(%v) accepted", dt)
		}
		if _, err := NewTrace(dt); err == nil {
			t.Errorf("NewTrace(%v) accepted", dt)
		}
		if _, err := NewStream(f, dt); err == nil {
			t.Errorf("NewStream(%v) accepted", dt)
		}
		if _, err := NewStreamGroup(dt); err == nil {
			t.Errorf("NewStreamGroup(%v) accepted", dt)
		}
		if _, err := NewBatchStreamGroup(dt, 2); err == nil {
			t.Errorf("NewBatchStreamGroup(%v) accepted", dt)
		}
		if _, err := NewOnlineMonitor(f, dt); err == nil {
			t.Errorf("NewOnlineMonitor(%v) accepted", dt)
		}
	}
}

// TestOversizedWindowFailsClosed: a window whose sample offsets overflow
// an int (a vanishing period, an infinite lower bound) or exceed what a
// streaming core may buffer is a compile error, not a panic inside Add
// and not a wrapped-around offset in the offline evaluator.
func TestOversizedWindowFailsClosed(t *testing.T) {
	once := MustParse("O[0,30] (x > 1)")
	for _, dt := range []float64{1e-300, 1e-12} {
		if _, err := NewStream(once, dt); err == nil {
			t.Errorf("dt=%v: 30-minute window compiled", dt)
		}
		g, err := NewBatchStreamGroup(dt, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Add(once); err == nil {
			t.Errorf("dt=%v: batched 30-minute window compiled", dt)
		}
	}
	tr, err := NewTrace(1e-300)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Set("x", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Formula{once, MustParse("G[5,10] (x > 1)")} {
		if _, err := f.Sat(tr, 1); err == nil {
			t.Errorf("offline %s at dt=1e-300 evaluated", f)
		}
		if _, err := f.Robustness(tr, 1); err == nil {
			t.Errorf("offline robustness of %s at dt=1e-300 evaluated", f)
		}
	}
	for _, b := range []Bounds{{A: math.Inf(1), B: math.Inf(1)}, {A: math.NaN(), B: 5}, {A: 0, B: math.NaN()}} {
		if _, err := NewStream(&Once{Bounds: b, Child: MustParse("x > 1")}, 5); err == nil {
			t.Errorf("bounds %v compiled", b)
		}
	}
	// Unbounded windows keep no buffer, so any valid period streams them.
	if _, err := NewStream(MustParse("H (x > 1)"), 1e-300); err != nil {
		t.Errorf("unbounded window at dt=1e-300: %v", err)
	}
}

// TestStreamInfiniteOperandsMatchOffline: ordering atoms compile to a
// fused linear form, but satisfaction must stay the exact comparison
// when the value and the threshold are the same infinity (where θ - v is
// NaN) — alone and inside a fused conjunction.
func TestStreamInfiniteOperandsMatchOffline(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	values := []float64{-inf, -1, 0, 1, inf, nan}
	for _, th := range []float64{-inf, 0, inf} {
		for _, op := range []CmpOp{OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE} {
			atom := &Atom{Var: "x", Op: op, Threshold: th}
			for _, f := range []Formula{atom, NewAnd(atom, &Atom{Var: "y", Op: OpGE, Threshold: -inf})} {
				tr, err := NewTrace(1)
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewStream(f, 1)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range values {
					sample := map[string]float64{"x": v, "y": values[(i+2)%len(values)]}
					tr.Append(sample)
					gotSat, gotRob, err := s.Push(sample)
					if err != nil {
						t.Fatal(err)
					}
					wantSat, _ := f.Sat(tr, i)
					wantRob, _ := f.Robustness(tr, i)
					if gotSat != wantSat || !sameFloat(gotRob, wantRob) {
						t.Errorf("%s at x=%v y=%v: streaming (%v, %v), offline (%v, %v)",
							f, v, sample["y"], gotSat, gotRob, wantSat, wantRob)
					}
				}
			}
		}
	}
}

// TestStreamEmptyConnectives: an empty conjunction is true with +Inf
// robustness and an empty disjunction false with -Inf, as offline.
func TestStreamEmptyConnectives(t *testing.T) {
	for _, f := range []Formula{&And{}, &Or{}, &Once{Bounds: Unbounded, Child: &Or{}}} {
		s, err := NewStream(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTrace(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			tr.Append(map[string]float64{})
			gotSat, gotRob, err := s.Push(map[string]float64{})
			if err != nil {
				t.Fatal(err)
			}
			wantSat, _ := f.Sat(tr, i)
			wantRob, _ := f.Robustness(tr, i)
			if gotSat != wantSat || gotRob != wantRob {
				t.Errorf("%s at %d: streaming (%v, %v), offline (%v, %v)", f, i, gotSat, gotRob, wantSat, wantRob)
			}
		}
	}
}
