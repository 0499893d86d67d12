// Snapshot/restore of monitor state. Each monitor serializes exactly
// the state that shapes its future verdicts; derived caches (last
// verdicts, fired-rule scratch) are recomputed on the next step and are
// not part of the encoding. A per-session context-aware or ML monitor
// is a one-lane view of its batched twin and snapshots as that lane, so
// a session can be snapshotted from a batched lane and restored into a
// per-session monitor or vice versa by construction. A restored
// sampling period must pass stl.ValidatePeriod, so a forged NaN,
// infinite, or non-positive period fails the restore instead of
// compiling rule streams at it.

package monitor

import (
	"fmt"

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

// SnapshotLane implements snapshot.LaneSnapshotter: the compiled
// sampling period followed by the lane's rule-stream state.
func (m *BatchContextAware) SnapshotLane(lane int, enc *snapshot.Encoder) {
	enc.Float64(m.dt)
	m.streams.SnapshotLane(lane, enc)
}

// RestoreLane implements snapshot.LaneSnapshotter. If the snapshot was
// taken at a different sampling period, the batch recompiles at the
// stored period first, so temporal windows keep their original spans.
// Every lane shares one compiled rule set, so that recompile is refused
// while another lane holds state; the restored lane's own state is
// replaced either way, which lets a one-lane view always recompile.
func (m *BatchContextAware) RestoreLane(lane int, dec *snapshot.Decoder) error {
	dt := dec.Float64()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := stl.ValidatePeriod(dt); err != nil {
		return fmt.Errorf("monitor: restored snapshot: %w", err)
	}
	if dt != m.dt {
		if m.liveLane(lane) {
			return fmt.Errorf("monitor: lane snapshot at dt=%v cannot join a live batch compiled at dt=%v", dt, m.dt)
		}
		m.dt = dt
		m.rebuild()
	}
	if err := m.streams.RestoreLane(lane, dec); err != nil {
		return err
	}
	m.clearLane(lane)
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

// SnapshotLane implements snapshot.LaneSnapshotter. A point-in-time
// classifier holds no evolving state, so the encoding is empty.
func (b *BatchML) SnapshotLane(lane int, enc *snapshot.Encoder) {}

// RestoreLane implements snapshot.LaneSnapshotter.
func (b *BatchML) RestoreLane(lane int, dec *snapshot.Decoder) error { return nil }

// SnapshotLane implements snapshot.LaneSnapshotter: the lane's sliding
// feature window, oldest frame first.
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
	// Decode the whole window before touching the lane, so a truncated
	// or corrupt snapshot leaves the lane as it was.
	vals := make([]float64, n*FeatureDim)
	for i := range vals {
		vals[i] = dec.Float64()
	}
	if err := dec.Err(); err != nil {
		return err
	}
	l := &b.lanes[lane]
	l.head, l.n = 0, n
	for k := 0; k < n; k++ {
		copy(l.frames[k], vals[k*FeatureDim:])
	}
	return nil
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
