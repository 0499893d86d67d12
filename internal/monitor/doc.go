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
// Monitors come in two execution shapes with one correctness contract:
//
//   - Monitor (Step): one session, one observation, one Verdict per
//     control cycle.
//   - BatchMonitor (StepBatch): one instance per fleet shard evaluates
//     every live session's cycle in a single call — batched DT/MLP/LSTM
//     inference (BatchML, BatchSequence) amortizes model weight
//     traffic, and the shard-batched context-aware monitor
//     (BatchContextAware) evaluates the whole shard's rule streams in
//     one struct-of-arrays push.
//
// The batching invariant: StepBatch verdicts are bit-identical to
// running the corresponding per-session Monitor on each lane — same
// alarms, hazards, margins, rule attributions, and confidences — so a
// fleet can switch between shapes without changing a single trace
// (TestFleetBatchedMonitorMatchesPerSession,
// TestBatchCAWTMatchesPerSession). Per-session ML monitors built over
// one trained model share it across fleet shards; the models' inference
// is re-entrant (per-call scratch), so that sharing is safe.
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
