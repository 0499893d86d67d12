// Package monitor implements the paper's safety monitors: the proposed
// context-aware monitor with learned thresholds (CAWT), its unlearned
// variant (CAWOT), and the baselines — medical-guideline rules
// (Table III), model-predictive control (Eq. 6), and wrappers around
// the ML classifiers of internal/ml.
//
// Every monitor observes only the controller's input-output interface:
// the sensed glucose, a monitor-side IOB estimate, and the issued
// command (Section II's wrapper assumption).
//
// # Per-session and batched evaluation
//
// Each learned or rule-based monitor has one implementation, a
// BatchMonitor (StepBatch) that evaluates many session lanes in one
// call: BatchContextAware pushes every lane's rule streams through one
// struct-of-arrays evaluation, and BatchML / BatchSequence run batched
// DT/MLP/LSTM inference that amortizes model weight traffic. A fleet
// shard runs one instance across its live sessions.
//
// The per-session Monitor (Step) of each of these algorithms —
// ContextAware (NewCAWT, NewCAWOT), MLMonitor and SequenceMonitor — is
// a one-lane view of its batched twin: Step is StepBatch on lane 0,
// Reset resets the batch, and snapshots are lane 0's bytes. Per-session
// and batched verdicts and snapshot bytes are therefore equal by
// construction, and the tests compare both shapes against independent
// oracles instead of against each other: the eager ContextAwareLegacy
// and the offline STL semantics of the rule bodies for the
// context-aware monitor (TestBatchCAWTMatchesPerSession,
// TestStreamingCAWTMatchesLegacyDifferential), and the models' scalar
// PredictProba with a test-side sliding window for the ML monitors
// (TestBatchMLMatchesPerSessionMonitor,
// TestBatchSequenceMatchesPerSessionMonitor,
// TestFleetBatchedMonitorMatchesPerSession). Guideline and MPC have no
// batched twin. Trained model weights are shared read-only; each
// monitor owns its inference scratch.
//
// The one-evaluation invariant: the streaming context-aware monitors
// own exactly one rule-stream evaluation per cycle, and alarm, hazard
// prediction, signed robustness margin, arg-min rule, fired-rule
// diagnostics, and (via StreamVerdict / StreamVerdictLane) fleet
// telemetry are all views of that single evaluation — nothing in the
// system evaluates the Safety Context Specification twice for the same
// cycle.
//
//fleetvet:deterministic
package monitor
