// Snapshot/restore of streaming rule-set state. A BatchStreamSet
// delegates entirely to its stl group: the rule fold and fired scratch
// are recomputed on every push, so the group's operator state (plus its
// sample cursor) is the whole checkpoint. A StreamSet is lane 0 of a
// one-lane BatchStreamSet, so its bytes are a lane snapshot by
// construction, which is what lets a session snapshotted from a batched
// telemetry lane restore into a per-session StreamSet and vice versa.

package scs

import "repro/internal/snapshot"

var (
	_ snapshot.Snapshotter     = (*StreamSet)(nil)
	_ snapshot.LaneSnapshotter = (*BatchStreamSet)(nil)
)

// SnapshotState implements snapshot.Snapshotter: the set's one lane.
func (ss *StreamSet) SnapshotState(enc *snapshot.Encoder) {
	ss.batch.SnapshotLane(0, enc)
}

// RestoreState implements snapshot.Snapshotter. The set must have been
// built from the same rules and thresholds as the one that produced the
// bytes.
func (ss *StreamSet) RestoreState(dec *snapshot.Decoder) error {
	if err := ss.batch.RestoreLane(0, dec); err != nil {
		return err
	}
	ss.batch.fired[0] = ss.batch.fired[0][:0]
	return nil
}

// SnapshotLane implements snapshot.LaneSnapshotter: one lane's rule
// streams.
func (bs *BatchStreamSet) SnapshotLane(lane int, enc *snapshot.Encoder) {
	bs.group.SnapshotLane(lane, enc)
}

// RestoreLane implements snapshot.LaneSnapshotter, accepting bytes from
// SnapshotLane of any identically built set, a StreamSet's
// SnapshotState included.
func (bs *BatchStreamSet) RestoreLane(lane int, dec *snapshot.Decoder) error {
	if err := bs.group.RestoreLane(lane, dec); err != nil {
		return err
	}
	// bs.n gates Add-after-push and engine rebuild checks; keep it ahead
	// of the restored lane's cursor without ever rewinding it.
	if n := bs.group.LaneLen(lane); n > bs.n {
		bs.n = n
	}
	return nil
}
