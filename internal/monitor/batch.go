package monitor

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/snapshot"
)

// BatchMonitor evaluates one control cycle for many concurrent sessions
// in a single call, amortizing model weight traffic across the batch
// (see internal/ml's batched inference). A BatchMonitor owns per-lane
// state and scratch buffers: create one per fleet shard; the wrapped
// model weights are shared and only read.
//
// The per-session Monitor of each algorithm is a one-lane view of its
// BatchMonitor, so per-lane verdicts equal per-session ones by
// construction.
type BatchMonitor interface {
	Name() string
	// ResetLanes prepares n independent session lanes, clearing any
	// per-lane state.
	ResetLanes(n int)
	// ResetLane clears one lane's state (a session restarting in place).
	ResetLane(lane int)
	// StepBatch evaluates obs[k] as the next cycle of session lane
	// lanes[k], writing the verdict into out[k].
	StepBatch(lanes []int, obs []Observation, out []Verdict)
}

// laneView is the per-session face of a batched monitor: a Monitor
// that runs lane 0 of its own one-lane batch. Reset resets the whole
// batch (re-arming the context-aware recompile at the first observed
// cycle length), and snapshots are lane 0's bytes.
type laneView[B interface {
	BatchMonitor
	snapshot.LaneSnapshotter
}] struct {
	batch B
	lane  [1]int // the one lane every step names
	obs   [1]Observation
	out   [1]Verdict
}

// Name implements Monitor.
func (v *laneView[B]) Name() string { return v.batch.Name() }

// Reset implements Monitor.
func (v *laneView[B]) Reset() { v.batch.ResetLanes(1) }

// Step implements Monitor.
func (v *laneView[B]) Step(obs Observation) Verdict {
	v.obs[0] = obs
	v.batch.StepBatch(v.lane[:], v.obs[:], v.out[:])
	return v.out[0]
}

// SnapshotState implements snapshot.Snapshotter: lane 0's bytes.
func (v *laneView[B]) SnapshotState(enc *snapshot.Encoder) { v.batch.SnapshotLane(0, enc) }

// RestoreState implements snapshot.Snapshotter.
func (v *laneView[B]) RestoreState(dec *snapshot.Decoder) error { return v.batch.RestoreLane(0, dec) }

// BatchML wraps a point-in-time batch classifier (DT, MLP) as a
// BatchMonitor per Eq. 7. It is stateless across cycles, so lanes only
// size the scratch buffers.
type BatchML struct {
	name  string
	clf   ml.BatchClassifier
	flat  []float64
	feats [][]float64
	proba []float64
}

var _ BatchMonitor = (*BatchML)(nil)

// NewBatchML wraps a trained batch classifier.
func NewBatchML(name string, clf ml.BatchClassifier) (*BatchML, error) {
	if clf == nil {
		return nil, fmt.Errorf("monitor: nil batch classifier")
	}
	return &BatchML{name: name, clf: clf}, nil
}

// Name implements BatchMonitor.
func (b *BatchML) Name() string { return b.name }

// ResetLanes implements BatchMonitor.
func (b *BatchML) ResetLanes(n int) { b.ensure(n) }

// ResetLane implements BatchMonitor.
func (b *BatchML) ResetLane(int) {}

func (b *BatchML) ensure(n int) {
	if n <= len(b.feats) {
		return
	}
	b.flat = make([]float64, n*FeatureDim)
	b.feats = make([][]float64, n)
	for i := range b.feats {
		b.feats[i] = b.flat[i*FeatureDim : (i+1)*FeatureDim]
	}
	b.proba = make([]float64, n*b.clf.Classes())
}

// StepBatch implements BatchMonitor.
func (b *BatchML) StepBatch(lanes []int, obs []Observation, out []Verdict) {
	n := len(obs)
	if n == 0 {
		return
	}
	b.ensure(n)
	for k := range obs {
		featuresInto(b.feats[k], &obs[k])
	}
	b.clf.PredictProbaBatchInto(b.feats[:n], b.proba)
	classes := b.clf.Classes()
	for k := 0; k < n; k++ {
		out[k] = probaToVerdict(b.proba[k*classes:(k+1)*classes], classes)
	}
}

// seqLane is one session's sliding feature window.
type seqLane struct {
	frames [][]float64 // ring of window frames
	n      int         // frames filled so far
	head   int         // index of the oldest frame
}

// BatchSequence wraps a windowed batch classifier (LSTM) as a
// BatchMonitor per Eq. 8, keeping a sliding window of the last k
// feature vectors per lane; a lane stays silent until its window fills.
type BatchSequence struct {
	name   string
	clf    ml.BatchSequenceClassifier
	window int
	lanes  []seqLane

	// Per-call scratch.
	wins  [][][]float64
	ready []int
	proba []float64
	views [][]float64 // window x lanes ordered-frame views, flattened
}

var _ BatchMonitor = (*BatchSequence)(nil)

// NewBatchSequence wraps a trained batch sequence classifier with
// window k.
func NewBatchSequence(name string, clf ml.BatchSequenceClassifier, window int) (*BatchSequence, error) {
	if clf == nil {
		return nil, fmt.Errorf("monitor: nil batch sequence classifier")
	}
	if window <= 0 {
		return nil, fmt.Errorf("monitor: invalid window %d", window)
	}
	return &BatchSequence{name: name, clf: clf, window: window}, nil
}

// Name implements BatchMonitor.
func (b *BatchSequence) Name() string { return b.name }

// ResetLanes implements BatchMonitor. Resetting to the current width
// only empties the windows.
func (b *BatchSequence) ResetLanes(n int) {
	if n == len(b.lanes) {
		for i := range b.lanes {
			b.ResetLane(i)
		}
		return
	}
	b.lanes = make([]seqLane, n)
	for i := range b.lanes {
		frames := make([][]float64, b.window)
		backing := make([]float64, b.window*FeatureDim)
		for j := range frames {
			frames[j] = backing[j*FeatureDim : (j+1)*FeatureDim]
		}
		b.lanes[i] = seqLane{frames: frames}
	}
	b.wins = make([][][]float64, 0, n)
	b.ready = make([]int, 0, n)
	b.proba = make([]float64, n*b.clf.Classes())
	b.views = make([][]float64, n*b.window)
}

// ResetLane implements BatchMonitor.
func (b *BatchSequence) ResetLane(lane int) {
	b.lanes[lane].n = 0
	b.lanes[lane].head = 0
}

// StepBatch implements BatchMonitor. Lanes whose window has not filled
// yet stay silent.
func (b *BatchSequence) StepBatch(lanes []int, obs []Observation, out []Verdict) {
	b.wins = b.wins[:0]
	b.ready = b.ready[:0]
	for k := range obs {
		l := &b.lanes[lanes[k]]
		// Overwrite the oldest frame.
		slot := (l.head + l.n) % b.window
		if l.n == b.window {
			slot = l.head
			l.head = (l.head + 1) % b.window
		} else {
			l.n++
		}
		featuresInto(l.frames[slot], &obs[k])
		out[k] = Verdict{}
		if l.n < b.window {
			continue
		}
		// Ordered view of the ring.
		view := b.views[len(b.wins)*b.window : (len(b.wins)+1)*b.window]
		for j := 0; j < b.window; j++ {
			view[j] = l.frames[(l.head+j)%b.window]
		}
		b.wins = append(b.wins, view)
		b.ready = append(b.ready, k)
	}
	if len(b.wins) == 0 {
		return
	}
	b.clf.PredictProbaSeqBatchInto(b.wins, b.proba)
	classes := b.clf.Classes()
	for i, k := range b.ready {
		out[k] = probaToVerdict(b.proba[i*classes:(i+1)*classes], classes)
	}
}
