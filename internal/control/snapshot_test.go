package control

import (
	"math"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

func TestIOBTrackerSnapshotRoundTrip(t *testing.T) {
	c := mustExpCurve(t)
	src := NewIOBTracker(c, 1)
	for i := 0; i < 80; i++ {
		src.Record(float64(i%7), 5)
	}
	enc := snapshot.NewEncoder()
	src.SnapshotState(enc)
	dst := NewIOBTracker(c, 1)
	if err := dst.RestoreState(snapshot.NewDecoder(enc.Payload())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		src.Record(3, 5)
		dst.Record(3, 5)
		if src.IOB() != dst.IOB() || src.Activity() != dst.Activity() {
			t.Fatalf("record %d after restore: IOB %v/%v, activity %v/%v",
				i, dst.IOB(), src.IOB(), dst.Activity(), src.Activity())
		}
	}
}

// A restored history must be in time order: pruning drops expired doses
// as a prefix, so an out-of-order history would keep an expired dose.
func TestIOBTrackerRestoreRejectsUnorderedHistory(t *testing.T) {
	for _, tc := range []struct {
		name  string
		times []float64
	}{
		{"out of order", []float64{2.5, 12.5, 7.5}},
		{"NaN time", []float64{2.5, math.NaN(), 7.5}},
		{"NaN first", []float64{math.NaN(), 2.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := snapshot.NewEncoder()
			enc.Float64(15)
			enc.Int(len(tc.times))
			for _, tm := range tc.times {
				enc.Float64(tm)
				enc.Float64(0.1)
			}
			tr := NewIOBTracker(mustExpCurve(t), 1)
			tr.Record(2, 5)
			err := tr.RestoreState(snapshot.NewDecoder(enc.Payload()))
			if err == nil || !strings.Contains(err.Error(), "time order") {
				t.Fatalf("RestoreState = %v, want a time-order error", err)
			}
			if tr.Now() != 5 || len(tr.doses) != 1 {
				t.Errorf("rejected restore changed the tracker: now %v, %d doses", tr.Now(), len(tr.doses))
			}
		})
	}
	enc := snapshot.NewEncoder()
	enc.Float64(15)
	enc.Int(3)
	for _, tm := range []float64{2.5, 2.5, 12.5} {
		enc.Float64(tm)
		enc.Float64(0.1)
	}
	if err := NewIOBTracker(mustExpCurve(t), 1).RestoreState(snapshot.NewDecoder(enc.Payload())); err != nil {
		t.Errorf("equal dose times rejected: %v", err)
	}
}
