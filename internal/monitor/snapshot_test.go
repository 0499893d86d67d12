package monitor

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
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
		if m.batch.dt != 5 || m.batch.streams.Len() != 1 {
			t.Errorf("dt=%v: rejected restore changed the monitor: dt %v, %d samples", dt, m.batch.dt, m.batch.streams.Len())
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
		if m.batch.dt != DefaultCycleMin {
			t.Errorf("cycle %v: monitor recompiled at %v", dt, m.batch.dt)
		}
	}
}

// snapshotDigest returns the hex sha256 of a monitor's snapshot bytes.
func snapshotDigest(take func(*snapshot.Encoder)) string {
	enc := snapshot.NewEncoder()
	take(enc)
	sum := sha256.Sum256(enc.Payload())
	return hex.EncodeToString(sum[:])
}

// TestPerSessionSnapshotDigests pins the per-session snapshot bytes of
// a stepped CAWOT, an LSTM monitor with a partial and with a full
// window, and the (empty) DT/MLP encoding against digests recorded when
// each per-session monitor still had its own snapshot code.
func TestPerSessionSnapshotDigests(t *testing.T) {
	const (
		cawotDigest       = "f734fbe372c05a86444e1a694a6ad42ade9115dd15332d7623d34dfec6d8176e"
		lstmPartialDigest = "d36d788f2e48c7f5688e1c649f4e04643692f531d15c63914a14fc84071dd750"
		lstmFullDigest    = "5086f2be68fc8f072ab61d97188b1b5a12cbe3f2ccad9d01b91ecf55e3f39457"
		emptyDigest       = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	)
	rng := rand.New(rand.NewSource(7))
	cawot, err := NewCAWOT(scs.TableI(), scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 12; step++ {
		cawot.Step(randCAWTObs(rng, step))
	}
	if got := snapshotDigest(cawot.SnapshotState); got != cawotDigest {
		t.Errorf("stepped CAWOT snapshot digest %s, want %s", got, cawotDigest)
	}

	const window = 4
	lstm := trainSmallLSTM(t, rng, window)
	seq, err := NewSequenceMonitor("LSTM", lstm.NewBatch(), window)
	if err != nil {
		t.Fatal(err)
	}
	seq.Step(randObs(rng))
	seq.Step(randObs(rng))
	if got := snapshotDigest(seq.SnapshotState); got != lstmPartialDigest {
		t.Errorf("partial-window LSTM snapshot digest %s, want %s", got, lstmPartialDigest)
	}
	for i := 0; i < window+3; i++ {
		seq.Step(randObs(rng))
	}
	if got := snapshotDigest(seq.SnapshotState); got != lstmFullDigest {
		t.Errorf("full-window LSTM snapshot digest %s, want %s", got, lstmFullDigest)
	}

	mlp := trainSmallMLP(t, rng)
	tree, err := ml.FitTree([][]float64{Features(randObs(rng)), Features(randObs(rng))}, []int{0, 1}, ml.TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, clf := range []struct {
		name string
		clf  ml.BatchClassifier
	}{{"DT", tree}, {"MLP", mlp.NewBatch()}} {
		m, err := NewMLMonitor(clf.name, clf.clf)
		if err != nil {
			t.Fatal(err)
		}
		m.Step(randObs(rng))
		if got := snapshotDigest(m.SnapshotState); got != emptyDigest {
			t.Errorf("%s snapshot digest %s, want %s", clf.name, got, emptyDigest)
		}
	}
}

// TestCAWTRestoreRecompilesAtSnapshotPeriod: a stepped per-session
// monitor restoring a snapshot taken at another sampling period
// recompiles at the stored period — it owns its rule streams, so the
// batched rule that a lane cannot join a live batch at another period
// does not apply — and then continues exactly like the monitor the
// snapshot was taken from.
func TestCAWTRestoreRecompilesAtSnapshotPeriod(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src, err := NewCAWOT(scs.TableI(), scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewCAWOT(scs.TableI(), scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 6; step++ {
		o := randCAWTObs(rng, step)
		o.CycleMin = 1
		src.Step(o)
		dst.Step(randCAWTObs(rng, step)) // stepped at the default period
	}
	enc := snapshot.NewEncoder()
	src.SnapshotState(enc)
	if err := dst.RestoreState(snapshot.NewDecoder(enc.Payload())); err != nil {
		t.Fatalf("stepped monitor refused a snapshot at another period: %v", err)
	}
	if got, want := snapshotDigest(dst.SnapshotState), snapshotDigest(src.SnapshotState); got != want {
		t.Fatal("restored monitor does not snapshot like its source")
	}
	for step := 6; step < 20; step++ {
		o := randCAWTObs(rng, step)
		o.CycleMin = 1
		if got, want := dst.Step(o), src.Step(o); got != want {
			t.Fatalf("step %d: restored %+v, source %+v", step, got, want)
		}
	}
}

// TestCAWTRestoreEmptySnapshotRearmsRecompile: restoring a snapshot
// taken before any step leaves the monitor without rule-stream state,
// so, as after Reset, its next step recompiles at the observed cycle
// length.
func TestCAWTRestoreEmptySnapshotRearmsRecompile(t *testing.T) {
	fresh, err := NewCAWOT(scs.TableI(), scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewCAWOT(scs.TableI(), scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	m.Step(snapshotObs)
	enc := snapshot.NewEncoder()
	fresh.SnapshotState(enc)
	if err := m.RestoreState(snapshot.NewDecoder(enc.Payload())); err != nil {
		t.Fatal(err)
	}
	obs := snapshotObs
	obs.CycleMin = 1
	m.Step(obs)
	fresh.Step(obs)
	if got, want := snapshotDigest(m.SnapshotState), snapshotDigest(fresh.SnapshotState); got != want {
		t.Fatal("restored empty monitor did not recompile at the observed cycle length like a fresh one")
	}
}

// TestSequenceRestoreRejectsTruncatedWindow: a truncated window snapshot
// fails the restore and leaves the monitor's window as it was.
func TestSequenceRestoreRejectsTruncatedWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const window = 4
	lstm := trainSmallLSTM(t, rng, window)
	m, err := NewSequenceMonitor("LSTM", lstm.NewBatch(), window)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < window; i++ {
		m.Step(randObs(rng))
	}
	before := snapshotDigest(m.SnapshotState)
	enc := snapshot.NewEncoder()
	m.SnapshotState(enc)
	data := enc.Payload()
	if err := m.RestoreState(snapshot.NewDecoder(data[:len(data)-3])); err == nil {
		t.Fatal("truncated window restored")
	}
	if snapshotDigest(m.SnapshotState) != before {
		t.Fatal("rejected restore changed the window")
	}
}
