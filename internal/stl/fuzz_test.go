package stl

import (
	"math"
	"math/rand"
	"testing"
)

// maxFuzzBound caps the finite window bounds (in minutes) the fuzzer
// streams: the engine preallocates a window's buffers per lane, so an
// accepted but enormous bound would spend the fuzz budget on memory
// rather than on semantics.
const maxFuzzBound = 1000

// boundsWithin reports whether every finite bound in f is at most limit.
func boundsWithin(f Formula, limit float64) bool {
	ok := func(b Bounds) bool { return b.A <= limit && (math.IsInf(b.B, 1) || b.B <= limit) }
	switch n := f.(type) {
	case *Not:
		return boundsWithin(n.Child, limit)
	case *And:
		for _, c := range n.Children {
			if !boundsWithin(c, limit) {
				return false
			}
		}
		return true
	case *Or:
		for _, c := range n.Children {
			if !boundsWithin(c, limit) {
				return false
			}
		}
		return true
	case *Implies:
		return boundsWithin(n.L, limit) && boundsWithin(n.R, limit)
	case *Once:
		return ok(n.Bounds) && boundsWithin(n.Child, limit)
	case *Historically:
		return ok(n.Bounds) && boundsWithin(n.Child, limit)
	case *Since:
		return ok(n.Bounds) && boundsWithin(n.L, limit) && boundsWithin(n.R, limit)
	case *Globally:
		return ok(n.Bounds) && boundsWithin(n.Child, limit)
	case *Eventually:
		return ok(n.Bounds) && boundsWithin(n.Child, limit)
	case *Until:
		return ok(n.Bounds) && boundsWithin(n.L, limit) && boundsWithin(n.R, limit)
	}
	return true
}

// FuzzStreamMatchesOffline is the STL front door under arbitrary text:
//
//   - rejected text returns an error and never panics;
//   - accepted text prints and reparses to the same String();
//   - an accepted past-only formula compiles into a StreamGroup or fails
//     closed with an error, and when it compiles, pushing a seeded sample
//     sequence keyed by Vars() matches the offline Sat/Robustness over
//     the same samples at every index (== with NaN matching NaN).
//
// Run it with `make fuzz-stl`.
func FuzzStreamMatchesOffline(f *testing.F) {
	for _, src := range append(append([]string{}, groupFormulas...),
		boundedStateFormula,
		"(BG > 180) and (BG' > 0.5) and (IOB' < -0.001) and (IOB < 2.5)",
		"not ((x >= 1) => (y != 2))",
		"O[1.2,1.4] (x > 0) or H[0,inf] (y <= 3)",
		"(x == 1) S[2,7] ((y < 0) or true)",
		"F[0,10] (x > 0)",
		"x > ",
		"O[5,1] (x > 0)",
		"((x > 1)",
	) {
		f.Add(src, int64(len(src)))
	}
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		formula, err := Parse(text)
		if err != nil {
			return
		}
		printed := formula.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q printed as %q, which does not reparse: %v", text, printed, err)
		}
		if again.String() != printed {
			t.Fatalf("%q printed as %q, reparsed as %q", text, printed, again.String())
		}
		if !PastOnly(formula) || !boundsWithin(formula, maxFuzzBound) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		dt := []float64{1, 0.5, 5}[rng.Intn(3)]
		g, err := NewStreamGroup(dt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Add(formula); err != nil {
			return // fails closed, e.g. a window the engine will not buffer
		}
		tr, err := NewTrace(dt)
		if err != nil {
			t.Fatal(err)
		}
		ties := thresholds(formula)
		vals := make([]float64, len(g.Vars()))
		sample := make(map[string]float64, len(vals))
		for i := 0; i < 30; i++ {
			for v, name := range g.Vars() {
				vals[v] = -20 + 40*rng.Float64()
				if len(ties) > 0 && rng.Intn(3) == 0 {
					vals[v] = ties[rng.Intn(len(ties))]
				}
				sample[name] = vals[v]
			}
			if err := g.PushVector(vals); err != nil {
				t.Fatal(err)
			}
			tr.Append(sample)
			wantSat, err := formula.Sat(tr, i)
			if err != nil {
				t.Fatal(err)
			}
			wantRob, err := formula.Robustness(tr, i)
			if err != nil {
				t.Fatal(err)
			}
			if g.Sat(0) != wantSat || !sameFloat(g.Rob(0), wantRob) {
				t.Fatalf("%s at dt=%v, sample %d: streaming (%v, %v), offline (%v, %v)",
					printed, dt, i, g.Sat(0), g.Rob(0), wantSat, wantRob)
			}
		}
	})
}
