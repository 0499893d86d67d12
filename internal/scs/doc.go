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
// Two incremental evaluators render rule sets through internal/stl's
// streaming engines, and they must agree exactly:
//
//   - StreamSet: one session's rules as a hash-consed stl.StreamGroup.
//     Shared context atoms and windows evaluate once per cycle no
//     matter how many rules contain them, and the structurally fixed
//     consequent (the u == action equality) folds inline, so a single
//     Push yields satisfaction, the minimum STL body robustness, the
//     signed rule margin with arg-min attribution, and the predicted
//     hazard class — the StreamVerdict that the streaming CAWT monitor,
//     Algorithm 1 margin scaling, and fleet telemetry all read from
//     (the one-evaluation invariant: nothing evaluates the rules twice
//     for the same cycle). State is O(window), never session length.
//   - BatchStreamSet: the same rule set across a whole fleet shard of
//     session lanes in one struct-of-arrays push. The batching
//     invariant: per-lane verdicts and fired-rule sets are bit-identical
//     to a per-session StreamSet — margins, arg-min rules, and hazards
//     included — enforced by TestBatchStreamSetMatchesPerSession over
//     randomized boundary-hugging states, staggered lane resets, and
//     randomized thresholds, and at fleet scale by
//     TestFleetBatchedTelemetryMatchesPerSession, which replays every
//     fleet trace through its own StreamSet. The verdict fold per lane is the exact
//     same arithmetic in the exact same order; only the loop over
//     sessions moved inside the node DAG.
//
//fleetvet:deterministic
package scs
