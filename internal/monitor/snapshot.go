// Snapshot/restore of monitor state. Each monitor serializes exactly
// the state that shapes its future verdicts; derived caches (last
// verdicts, fired-rule scratch) are recomputed on the next step and are
// not part of the encoding. The per-session and batched variants of
// each monitor emit identical bytes for the same logical state, so a
// session can be snapshotted from a batched lane and restored into a
// per-session monitor or vice versa; for the context-aware monitors
// this holds by construction, since a per-session rule stream is one
// lane of the batched engine. A restored sampling period must pass
// stl.ValidatePeriod, so a forged NaN, infinite, or non-positive period
// fails the restore instead of compiling rule streams at it.

package monitor

import (
	"fmt"

	"repro/internal/scs"
	"repro/internal/snapshot"
	"repro/internal/stl"
)

var (
	_ snapshot.Snapshotter     = (*ContextAware)(nil)
	_ snapshot.LaneSnapshotter = (*BatchContextAware)(nil)
	_ snapshot.Snapshotter     = (*Guideline)(nil)
	_ snapshot.Snapshotter     = (*MLMonitor)(nil)
	_ snapshot.LaneSnapshotter = (*BatchML)(nil)
	_ snapshot.Snapshotter     = (*SequenceMonitor)(nil)
	_ snapshot.LaneSnapshotter = (*BatchSequence)(nil)
	_ snapshot.Snapshotter     = (*MPC)(nil)
)

// SnapshotState implements snapshot.Snapshotter: the compiled sampling
// period followed by the rule-stream state.
func (m *ContextAware) SnapshotState(enc *snapshot.Encoder) {
	enc.Float64(m.dt)
	m.streams.SnapshotState(enc)
}

// RestoreState implements snapshot.Snapshotter. If the snapshot was
// taken at a different sampling period than this monitor is compiled
// for, the rule streams are recompiled at the stored period first, so
// temporal windows keep their original spans.
func (m *ContextAware) RestoreState(dec *snapshot.Decoder) error {
	dt := dec.Float64()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := stl.ValidatePeriod(dt); err != nil {
		return fmt.Errorf("monitor: restored snapshot: %w", err)
	}
	if dt != m.dt {
		streams, err := scs.NewStreamSet(m.rules, m.thresholds, m.params, dt)
		if err != nil {
			return fmt.Errorf("monitor: recompile at restored dt=%v: %w", dt, err)
		}
		m.dt = dt
		m.streams = streams
	}
	if err := m.streams.RestoreState(dec); err != nil {
		return err
	}
	m.last = scs.StreamVerdict{}
	m.lastOK = false
	m.lastFired = m.lastFired[:0]
	return nil
}

// SnapshotLane implements snapshot.LaneSnapshotter, emitting the same
// bytes ContextAware.SnapshotState would for the lane's logical state.
func (m *BatchContextAware) SnapshotLane(lane int, enc *snapshot.Encoder) {
	enc.Float64(m.dt)
	m.streams.SnapshotLane(lane, enc)
}

// RestoreLane implements snapshot.LaneSnapshotter. A sampling-period
// mismatch recompiles the whole batch only while no lane holds state;
// once any lane is live the periods must agree, because every lane of a
// batch shares one compiled rule set.
func (m *BatchContextAware) RestoreLane(lane int, dec *snapshot.Decoder) error {
	dt := dec.Float64()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := stl.ValidatePeriod(dt); err != nil {
		return fmt.Errorf("monitor: restored snapshot: %w", err)
	}
	if dt != m.dt {
		if m.streams != nil && m.streams.Len() > 0 {
			return fmt.Errorf("monitor: lane snapshot at dt=%v cannot join a live batch compiled at dt=%v", dt, m.dt)
		}
		m.dt = dt
		m.rebuild()
	}
	if err := m.streams.RestoreLane(lane, dec); err != nil {
		return err
	}
	m.last[lane] = scs.StreamVerdict{}
	m.lastOK[lane] = false
	m.lastFired[lane] = m.lastFired[lane][:0]
	return nil
}

// SnapshotState implements snapshot.Snapshotter: the CGM history point
// and the two duration timers (NaN while inactive, preserved exactly).
func (m *Guideline) SnapshotState(enc *snapshot.Encoder) {
	enc.Float64(m.prevCGM)
	enc.Bool(m.havePrev)
	enc.Float64(m.belowSince)
	enc.Float64(m.aboveSince)
}

// RestoreState implements snapshot.Snapshotter.
func (m *Guideline) RestoreState(dec *snapshot.Decoder) error {
	prevCGM := dec.Float64()
	havePrev := dec.Bool()
	belowSince := dec.Float64()
	aboveSince := dec.Float64()
	if err := dec.Err(); err != nil {
		return err
	}
	m.prevCGM = prevCGM
	m.havePrev = havePrev
	m.belowSince = belowSince
	m.aboveSince = aboveSince
	return nil
}

// SnapshotState implements snapshot.Snapshotter. A point-in-time
// classifier holds no evolving state, so the encoding is empty — which
// also makes it byte-compatible with a BatchML lane.
func (m *MLMonitor) SnapshotState(enc *snapshot.Encoder) {}

// RestoreState implements snapshot.Snapshotter.
func (m *MLMonitor) RestoreState(dec *snapshot.Decoder) error { return nil }

// SnapshotLane implements snapshot.LaneSnapshotter: empty, matching
// MLMonitor.SnapshotState.
func (b *BatchML) SnapshotLane(lane int, enc *snapshot.Encoder) {}

// RestoreLane implements snapshot.LaneSnapshotter.
func (b *BatchML) RestoreLane(lane int, dec *snapshot.Decoder) error { return nil }

// SnapshotState implements snapshot.Snapshotter: the sliding feature
// window, oldest frame first.
func (m *SequenceMonitor) SnapshotState(enc *snapshot.Encoder) {
	enc.Int(len(m.buf))
	for _, frame := range m.buf {
		for _, v := range frame {
			enc.Float64(v)
		}
	}
}

// RestoreState implements snapshot.Snapshotter.
func (m *SequenceMonitor) RestoreState(dec *snapshot.Decoder) error {
	n := dec.Count(8 * FeatureDim)
	if err := dec.Err(); err != nil {
		return err
	}
	if n > m.window {
		return fmt.Errorf("monitor: restored window holds %d frames, capacity %d", n, m.window)
	}
	buf := make([][]float64, n)
	for i := range buf {
		frame := make([]float64, FeatureDim)
		for j := range frame {
			frame[j] = dec.Float64()
		}
		buf[i] = frame
	}
	if err := dec.Err(); err != nil {
		return err
	}
	m.buf = buf
	return nil
}

// SnapshotLane implements snapshot.LaneSnapshotter, emitting the lane's
// window oldest-first — the same bytes SequenceMonitor.SnapshotState
// produces for the equivalent scalar window.
func (b *BatchSequence) SnapshotLane(lane int, enc *snapshot.Encoder) {
	l := &b.lanes[lane]
	enc.Int(l.n)
	for k := 0; k < l.n; k++ {
		for _, v := range l.frames[(l.head+k)%b.window] {
			enc.Float64(v)
		}
	}
}

// RestoreLane implements snapshot.LaneSnapshotter.
func (b *BatchSequence) RestoreLane(lane int, dec *snapshot.Decoder) error {
	n := dec.Count(8 * FeatureDim)
	if err := dec.Err(); err != nil {
		return err
	}
	if n > b.window {
		return fmt.Errorf("monitor: restored window holds %d frames, capacity %d", n, b.window)
	}
	l := &b.lanes[lane]
	l.head = 0
	l.n = n
	for k := 0; k < n; k++ {
		for j := range l.frames[k] {
			l.frames[k][j] = dec.Float64()
		}
	}
	return dec.Err()
}

// SnapshotState implements snapshot.Snapshotter: the monitor-side
// insulin compartments.
func (m *MPC) SnapshotState(enc *snapshot.Encoder) {
	enc.Float64(m.isc)
	enc.Float64(m.ip)
	enc.Float64(m.ieff)
}

// RestoreState implements snapshot.Snapshotter.
func (m *MPC) RestoreState(dec *snapshot.Decoder) error {
	isc := dec.Float64()
	ip := dec.Float64()
	ieff := dec.Float64()
	if err := dec.Err(); err != nil {
		return err
	}
	m.isc, m.ip, m.ieff = isc, ip, ieff
	m.initialized = true
	return nil
}
