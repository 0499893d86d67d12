package monitor

import (
	"math"
	"testing"

	"repro/internal/scs"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// forgedPeriods are sampling periods a snapshot may carry that no rule
// stream can run at: each must fail the restore closed, with an error.
var forgedPeriods = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5}

// snapshotWithPeriod re-encodes a monitor snapshot with its leading
// sampling period replaced.
func snapshotWithPeriod(t *testing.T, take func(*snapshot.Encoder), dt float64) []byte {
	t.Helper()
	enc := snapshot.NewEncoder()
	take(enc)
	dec := snapshot.NewDecoder(enc.Payload())
	dec.Float64()
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	forged := snapshot.NewEncoder()
	forged.Float64(dt)
	return append(forged.Payload(), enc.Payload()[len(enc.Payload())-dec.Remaining():]...)
}

var snapshotObs = Observation{CycleMin: 5, CGM: 220, BGPrime: 2, IOB: 1, IOBPrime: -0.02, Action: trace.ActionDecrease}

// TestContextAwareRestoreRejectsForgedPeriod: a snapshot whose sampling
// period is NaN, infinite, or not positive must be rejected without
// panicking and without touching the monitor, which stays usable.
func TestContextAwareRestoreRejectsForgedPeriod(t *testing.T) {
	for _, dt := range forgedPeriods {
		m, err := NewCAWOT(scs.TableI(), scs.Params{})
		if err != nil {
			t.Fatal(err)
		}
		m.Step(snapshotObs)
		data := snapshotWithPeriod(t, m.SnapshotState, dt)
		if err := m.RestoreState(snapshot.NewDecoder(data)); err == nil {
			t.Errorf("dt=%v: forged snapshot restored", dt)
		}
		if m.dt != 5 || m.streams.Len() != 1 {
			t.Errorf("dt=%v: rejected restore changed the monitor: dt %v, %d samples", dt, m.dt, m.streams.Len())
		}
		m.Step(snapshotObs)
	}
}

// TestBatchContextAwareRestoreLaneRejectsForgedPeriod is the lane form
// of the same contract.
func TestBatchContextAwareRestoreLaneRejectsForgedPeriod(t *testing.T) {
	src, err := NewCAWOT(scs.TableI(), scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	src.Step(snapshotObs)
	for _, dt := range forgedPeriods {
		m, err := NewBatchCAWOT(scs.TableI(), scs.Params{})
		if err != nil {
			t.Fatal(err)
		}
		m.ResetLanes(2)
		data := snapshotWithPeriod(t, src.SnapshotState, dt)
		if err := m.RestoreLane(1, snapshot.NewDecoder(data)); err == nil {
			t.Errorf("dt=%v: forged lane snapshot restored", dt)
		}
		if m.dt != DefaultCycleMin {
			t.Errorf("dt=%v: rejected restore recompiled the batch at %v", dt, m.dt)
		}
		out := make([]Verdict, 2)
		m.StepBatch([]int{0, 1}, []Observation{snapshotObs, snapshotObs}, out)
	}
}

// TestContextAwareIgnoresInvalidObservedCycle: an observation whose
// cycle length is not a usable sampling period must not trigger a
// recompile (which would fail and panic); the monitor keeps its period.
func TestContextAwareIgnoresInvalidObservedCycle(t *testing.T) {
	for _, dt := range forgedPeriods {
		m, err := NewCAWOT(scs.TableI(), scs.Params{})
		if err != nil {
			t.Fatal(err)
		}
		obs := snapshotObs
		obs.CycleMin = dt
		m.Step(obs)
		if m.dt != DefaultCycleMin {
			t.Errorf("cycle %v: monitor recompiled at %v", dt, m.dt)
		}
	}
}
