package monitor

import (
	"sort"

	"repro/internal/ml"
	"repro/internal/trace"
)

// Features extracts the ML feature vector of Eq. 7 from an observation:
// the observable state xt plus the issued control action ut.
func Features(obs Observation) []float64 {
	f := make([]float64, FeatureDim)
	featuresInto(f, &obs)
	return f
}

// FeatureDim is the length of the Features vector.
const FeatureDim = 6

// featuresInto writes the Eq. 7 feature vector into dst (len
// FeatureDim): the one feature writer behind monitoring and training.
func featuresInto(dst []float64, obs *Observation) {
	dst[0] = obs.CGM
	dst[1] = obs.BGPrime
	dst[2] = obs.IOB
	dst[3] = obs.IOBPrime
	dst[4] = obs.Rate
	dst[5] = float64(obs.Action)
}

// classToHazard maps a classifier output to a hazard verdict. Binary
// classifiers emit class 1 = unsafe (hazard type unknown: report H2's
// conservative counterpart by glucose side is unavailable, so Unknown
// maps to H1, the acute hazard). Multi-class classifiers emit
// 0=safe, 1=H1, 2=H2.
func classToHazard(class, classes int) Verdict {
	switch {
	case class == 0:
		return Verdict{}
	case classes == 2:
		return Verdict{Alarm: true, Hazard: trace.HazardH1}
	case class == 1:
		return Verdict{Alarm: true, Hazard: trace.HazardH1}
	default:
		return Verdict{Alarm: true, Hazard: trace.HazardH2}
	}
}

// probaToVerdict derives the verdict from one class-probability pass:
// the argmax class decides alarm and hazard exactly as Predict would,
// and its probability becomes the verdict's Confidence.
func probaToVerdict(proba []float64, classes int) Verdict {
	class, best := 0, proba[0]
	for i, p := range proba {
		if p > best {
			class, best = i, p
		}
	}
	v := classToHazard(class, classes)
	v.Confidence = best
	return v
}

// MLMonitor is the per-session point-in-time ML monitor (DT, MLP) of
// Eq. 7: a one-lane view of BatchML.
type MLMonitor struct{ laneView[*BatchML] }

// NewMLMonitor wraps a trained batch classifier. The monitor owns the
// classifier's scratch, so give each monitor its own (an ml.MLP's
// NewBatch; an ml.Tree is pure and may be shared).
func NewMLMonitor(name string, clf ml.BatchClassifier) (*MLMonitor, error) {
	b, err := NewBatchML(name, clf)
	if err != nil {
		return nil, err
	}
	b.ResetLanes(1)
	return &MLMonitor{laneView[*BatchML]{batch: b}}, nil
}

// SequenceMonitor is the per-session windowed ML monitor (LSTM) of
// Eq. 8: a one-lane view of BatchSequence, silent until its window of
// the last k observations fills.
type SequenceMonitor struct{ laneView[*BatchSequence] }

// NewSequenceMonitor wraps a trained batch sequence classifier with
// window k. The monitor owns the classifier's scratch, so give each
// monitor its own (an ml.LSTM's NewBatch).
func NewSequenceMonitor(name string, clf ml.BatchSequenceClassifier, window int) (*SequenceMonitor, error) {
	b, err := NewBatchSequence(name, clf, window)
	if err != nil {
		return nil, err
	}
	b.ResetLanes(1)
	return &SequenceMonitor{laneView[*BatchSequence]{batch: b}}, nil
}

// TrainingData assembles point-in-time training matrices from labeled
// traces per Eq. 7: a sample is positive when a hazard occurs at any
// future time of its trace. With multiClass, positives carry the hazard
// type (1=H1, 2=H2).
func TrainingData(traces []*trace.Trace, multiClass bool) (X [][]float64, y []int) {
	for _, tr := range traces {
		hazType := tr.DominantHazard()
		for i := range tr.Samples {
			s := &tr.Samples[i]
			label := 0
			// Positive when a hazard happens at any t' >= t (Eq. 7).
			if anyHazardAtOrAfter(tr, s.Step) {
				if multiClass {
					label = int(hazType)
				} else {
					label = 1
				}
			}
			X = append(X, Features(sampleObservation(s)))
			y = append(y, label)
		}
	}
	return X, y
}

// SequenceWindows indexes the windowed training data of Eq. 8 without
// building it: the sliding windows of every trace, in trace order and
// then by end sample, are numbered 0..Len()-1, and At(k) builds window
// k and its label. A caller that keeps a subsample builds only the
// windows it keeps.
type SequenceWindows struct {
	traces     []*trace.Trace
	window     int
	multiClass bool
	ends       []int // ends[i]: windows in traces[:i+1]
}

// NewSequenceWindows indexes the window-length sliding windows of
// traces.
func NewSequenceWindows(traces []*trace.Trace, window int, multiClass bool) *SequenceWindows {
	w := &SequenceWindows{traces: traces, window: window, multiClass: multiClass, ends: make([]int, len(traces))}
	n := 0
	for i, tr := range traces {
		n += max(0, tr.Len()-window+1)
		w.ends[i] = n
	}
	return w
}

// Len returns the number of windows.
func (w *SequenceWindows) Len() int {
	if len(w.ends) == 0 {
		return 0
	}
	return w.ends[len(w.ends)-1]
}

// At builds window k (timesteps x features) and its label: positive
// when a hazard occurs at or after the window's last sample, carrying
// the trace's dominant hazard type with multiClass.
func (w *SequenceWindows) At(k int) (win [][]float64, label int) {
	i := sort.SearchInts(w.ends, k+1)
	tr := w.traces[i]
	end := w.window + k
	if i > 0 {
		end -= w.ends[i-1]
	}
	win = make([][]float64, w.window)
	for j := range win {
		win[j] = Features(sampleObservation(&tr.Samples[end-w.window+j]))
	}
	if anyHazardAtOrAfter(tr, tr.Samples[end-1].Step) {
		label = 1
		if w.multiClass {
			label = int(tr.DominantHazard())
		}
	}
	return win, label
}

func anyHazardAtOrAfter(tr *trace.Trace, step int) bool {
	for i := step; i < tr.Len(); i++ {
		if tr.Samples[i].Hazard != trace.HazardNone {
			return true
		}
	}
	return false
}
