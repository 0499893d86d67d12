// Package scs encodes the paper's Safety Context Specification: the
// twelve Table I rules that describe in which multi-dimensional system
// context  µ(x) = (BG, BG', IOB, IOB')  each control action u1..u4 is
// an Unsafe Control Action leading to hazard H1 or H2.
//
// Each rule carries one learnable boundary threshold β (on IOB for
// rules 1-9, 11, 12; on BG for rule 10) that the stllearn package
// refines from fault-injected traces. Rules render to STL formulas of
// the Eq. 1 shape
//
//	G[t0,te]( context(µ(x)) ∧ learnable ⇒ ¬u )
//
// and are evaluated online against per-cycle states.
//
// # Streaming evaluation and its invariants
//
// BatchStreamSet renders a rule set through internal/stl's streaming
// engine across any number of session lanes in one struct-of-arrays
// push; StreamSet, one session's rules, is its one-lane view. The
// rules' antecedents compile into one hash-consed stl.BatchStreamGroup,
// so shared context atoms and windows evaluate once per cycle no matter
// how many rules contain them, and the structurally fixed consequent
// (the u == action equality) folds inline per lane, so a single push
// yields satisfaction, the minimum STL body robustness, the signed rule
// margin with arg-min attribution, and the predicted hazard class — the
// StreamVerdict that the streaming CAWT monitor, Algorithm 1 margin
// scaling, and fleet telemetry all read from (the one-evaluation
// invariant: nothing evaluates the rules twice for the same cycle).
// State is O(window), never session length.
//
// The reference is the offline STL semantics of the rule bodies:
// TestBatchStreamSetMatchesPerSession checks every lane's verdict and
// fired-rule set against Sat/Robustness over that lane's samples since
// its last reset, under randomized boundary-hugging states, staggered
// lane resets, and randomized thresholds, and checks lane independence
// against one StreamSet per lane; at fleet scale
// TestFleetBatchedTelemetryMatchesPerSession replays every fleet trace
// through its own StreamSet.
//
//fleetvet:deterministic
package scs
