// Snapshot/restore of a live closed-loop session. A Stepper serializes
// its loop cursor, accumulated trace samples, verdict memory, monitor
// IOB model, fault-injection progress, controller, and patient — the
// complete state needed to resume the run bit-exactly on a freshly
// constructed Stepper built from the same Config. The attached Monitor
// is NOT part of the stepper's bytes: fleet engines run monitors as
// shard-level batch lanes and checkpoint them alongside.

package closedloop

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Snapshot serializes the stepper's resumable state into enc. It fails
// when a cycle is split open (between BeginStep and FinishStep), after
// Finish, or when the controller or patient does not support
// checkpointing — snapshot sits at cycle boundaries by design.
func (st *Stepper) Snapshot(enc *snapshot.Encoder) error {
	if st.pending.active {
		return fmt.Errorf("closedloop: cannot snapshot mid-cycle")
	}
	if st.finished {
		return fmt.Errorf("closedloop: cannot snapshot a finished stepper")
	}

	enc.Int(st.step)
	enc.Float64(st.prevCGM)
	enc.Float64(st.prevIOB)
	enc.Float64(st.prevDelivered)

	enc.Bool(st.lastVerdict.Alarm)
	enc.Int(int(st.lastVerdict.Hazard))
	enc.Float64(st.lastVerdict.Margin)
	enc.Int(st.lastVerdict.Rule)
	enc.Float64(st.lastVerdict.Confidence)

	enc.Int(len(st.tr.Samples))
	for i := range st.tr.Samples {
		snapshotSample(enc, &st.tr.Samples[i])
	}

	st.monIOB.SnapshotState(enc)

	// One presence bit; the injector count is implied by the Config's
	// plan, so a single-inject plan writes exactly one injector's bytes.
	planInj := st.exec != nil && st.exec.HasInjectors()
	enc.Bool(planInj)
	if planInj {
		st.exec.SnapshotState(enc)
	}

	ctrl, ok := st.cfg.Controller.(snapshot.Snapshotter)
	if !ok {
		return fmt.Errorf("closedloop: controller %T does not support snapshot", st.cfg.Controller)
	}
	ctrl.SnapshotState(enc)

	return snapshotPatient(enc, st.cfg.Patient)
}

// Restore loads state previously written by Snapshot into a freshly
// constructed Stepper built from the same Config. On error the stepper
// must be discarded.
func (st *Stepper) Restore(dec *snapshot.Decoder) error {
	if st.pending.active || st.finished || st.step != 0 {
		return fmt.Errorf("closedloop: restore target is not a fresh stepper")
	}

	step := dec.Int()
	prevCGM := dec.Float64()
	prevIOB := dec.Float64()
	prevDelivered := dec.Float64()

	var v Verdict
	v.Alarm = dec.Bool()
	v.Hazard = trace.HazardType(dec.Int())
	v.Margin = dec.Float64()
	v.Rule = dec.Int()
	v.Confidence = dec.Float64()

	n := dec.Count(1)
	if err := dec.Err(); err != nil {
		return err
	}
	if step < 0 || step > st.cfg.Steps {
		return fmt.Errorf("closedloop: restored step %d outside [0, %d]", step, st.cfg.Steps)
	}
	if n != step {
		return fmt.Errorf("closedloop: restored %d samples for step cursor %d", n, step)
	}
	samples := st.tr.Samples[:0]
	for i := 0; i < n; i++ {
		samples = append(samples, restoreSample(dec))
	}
	if err := dec.Err(); err != nil {
		return err
	}

	if err := st.monIOB.RestoreState(dec); err != nil {
		return fmt.Errorf("closedloop: monitor iob: %w", err)
	}

	hadInjector := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	planInj := st.exec != nil && st.exec.HasInjectors()
	if hadInjector != planInj {
		return fmt.Errorf("closedloop: snapshot fault-injector presence (%v) does not match config (%v)",
			hadInjector, planInj)
	}
	if planInj {
		if err := st.exec.RestoreState(dec); err != nil {
			return fmt.Errorf("closedloop: fault injector: %w", err)
		}
	}

	ctrl, ok := st.cfg.Controller.(snapshot.Snapshotter)
	if !ok {
		return fmt.Errorf("closedloop: controller %T does not support snapshot", st.cfg.Controller)
	}
	if err := ctrl.RestoreState(dec); err != nil {
		return fmt.Errorf("closedloop: controller: %w", err)
	}

	if err := restorePatient(dec, st.cfg.Patient); err != nil {
		return fmt.Errorf("closedloop: patient: %w", err)
	}

	st.step = step
	st.prevCGM = prevCGM
	st.prevIOB = prevIOB
	st.prevDelivered = prevDelivered
	st.lastVerdict = v
	st.tr.Samples = samples
	return nil
}

// snapshotPatient checkpoints the loop's physiology: a scalar patient
// directly, or one batched lane through its sim.LaneView.
func snapshotPatient(enc *snapshot.Encoder, p sim.Patient) error {
	switch t := p.(type) {
	case snapshot.Snapshotter:
		t.SnapshotState(enc)
		return nil
	case sim.LaneView:
		ls, ok := t.B.(snapshot.LaneSnapshotter)
		if !ok {
			return fmt.Errorf("closedloop: batch patient %T does not support snapshot", t.B)
		}
		ls.SnapshotLane(t.Lane, enc)
		return nil
	default:
		return fmt.Errorf("closedloop: patient %T does not support snapshot", p)
	}
}

func restorePatient(dec *snapshot.Decoder, p sim.Patient) error {
	switch t := p.(type) {
	case snapshot.Snapshotter:
		return t.RestoreState(dec)
	case sim.LaneView:
		ls, ok := t.B.(snapshot.LaneSnapshotter)
		if !ok {
			return fmt.Errorf("closedloop: batch patient %T does not support snapshot", t.B)
		}
		return ls.RestoreLane(t.Lane, dec)
	default:
		return fmt.Errorf("closedloop: patient %T does not support snapshot", p)
	}
}

// snapshotSample writes every trace.Sample field in declaration order.
func snapshotSample(enc *snapshot.Encoder, s *trace.Sample) {
	enc.Int(s.Step)
	enc.Float64(s.TimeMin)
	enc.Float64(s.BG)
	enc.Float64(s.CGM)
	enc.Float64(s.IOB)
	enc.Float64(s.BGPrime)
	enc.Float64(s.IOBPrime)
	enc.Float64(s.Rate)
	enc.Float64(s.Delivered)
	enc.Int(int(s.Action))
	enc.Bool(s.FaultActive)
	enc.Int(int(s.Hazard))
	enc.Bool(s.Alarm)
	enc.Int(int(s.AlarmHazard))
	enc.Bool(s.Mitigated)
}

func restoreSample(dec *snapshot.Decoder) trace.Sample {
	var s trace.Sample
	s.Step = dec.Int()
	s.TimeMin = dec.Float64()
	s.BG = dec.Float64()
	s.CGM = dec.Float64()
	s.IOB = dec.Float64()
	s.BGPrime = dec.Float64()
	s.IOBPrime = dec.Float64()
	s.Rate = dec.Float64()
	s.Delivered = dec.Float64()
	s.Action = trace.Action(dec.Int())
	s.FaultActive = dec.Bool()
	s.Hazard = trace.HazardType(dec.Int())
	s.Alarm = dec.Bool()
	s.AlarmHazard = trace.HazardType(dec.Int())
	s.Mitigated = dec.Bool()
	return s
}
