// Package stl implements bounded-time Signal Temporal Logic over
// sampled multi-variable traces: the formula AST, boolean satisfaction,
// the standard quantitative (robustness) semantics used by the paper's
// threshold-learning step, a text parser, and one online streaming
// engine for past-only formulas.
//
// Time bounds are expressed in minutes and converted to sample indices
// through the trace's sampling period, so the same formula evaluates on
// traces of any uniform rate, and the streaming compiler delegates to
// the same Bounds conversion the offline evaluator uses, so window
// edges can never disagree between the two. A sampling period must be
// finite and positive (ValidatePeriod), and a window whose sample
// offsets do not fit an int — or, when streamed, exceed the samples an
// operator core may buffer — is an error, never a wrapped offset or an
// oversized allocation.
//
// # Evaluation paths and their invariants
//
// The package maintains two evaluation paths that must agree exactly:
//
//   - Offline: Formula.Sat / Formula.Robustness over a recorded Trace —
//     the reference semantics.
//   - Streaming (BatchStreamGroup): past-only formulas compile into one
//     hash-consed node DAG keyed on the canonical formula rendering,
//     evaluated across any number of independent sessions (lanes) in
//     one struct-of-arrays push. Temporal operators keep per-lane
//     cores (delay lines, Lemire window-extremum deques, clamp-merge
//     Since deques), so each push is O(1) amortized per lane with
//     O(sum of window lengths) retained state, independent of session
//     length. Verdict and robustness of every lane are exactly equal
//     (==) to the offline semantics over that lane's samples since its
//     last reset — not approximately: the engine reorders min/max folds
//     but never changes operands (TestPropStreamingMatchesOffline,
//     TestBatchStreamGroupMatchesPerLane, FuzzStreamMatchesOffline).
//     The sharing invariant: a shared temporal node advances exactly
//     once per push no matter how many formulas contain it (its
//     pushGuard), and StateSamples counts deduplicated state. Lanes
//     reset independently (ResetLane), which is what lets a fleet shard
//     recycle a lane for a fresh session mid-run.
//
// StreamGroup (many formulas over one session) is a one-lane view of
// BatchStreamGroup, Stream is a one-formula StreamGroup, and
// OnlineMonitor runs on a Stream, so a per-session stream and a fleet
// lane run the same kernels and their snapshots are the same bytes by
// construction.
//
//fleetvet:deterministic
package stl
