package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvHeader is the column layout used by WriteCSV/ReadCSV.
var csvHeader = []string{
	"step", "time_min", "bg", "cgm", "iob", "bg_prime", "iob_prime",
	"rate", "delivered", "action", "fault_active", "hazard", "alarm",
	"alarm_hazard", "mitigated",
}

// Meta record lengths: the original layout had 11 fields; the scheduled
// basal rate was appended as field 12 (older traces read back with
// Basal == 0).
const (
	metaFieldsV1 = 11
	metaFieldsV2 = 12
)

// WriteCSV serializes the trace samples as CSV with a header row.
// Trace-level metadata (patient, platform, basal, fault) is written as a
// leading comment-style record so a trace round-trips through ReadCSV.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	meta := []string{
		"#meta", t.PatientID, t.Platform,
		formatFloat(t.InitialBG), formatFloat(t.CycleMin),
		t.Fault.Name, t.Fault.Kind, t.Fault.Target,
		strconv.Itoa(t.Fault.StartStep), strconv.Itoa(t.Fault.Duration),
		formatFloat(t.Fault.Value),
		formatFloat(t.Basal),
	}
	if err := cw.Write(meta); err != nil {
		return fmt.Errorf("write meta: %w", err)
	}
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	for i := range t.Samples {
		s := &t.Samples[i]
		rec := []string{
			strconv.Itoa(s.Step),
			formatFloat(s.TimeMin),
			formatFloat(s.BG),
			formatFloat(s.CGM),
			formatFloat(s.IOB),
			formatFloat(s.BGPrime),
			formatFloat(s.IOBPrime),
			formatFloat(s.Rate),
			formatFloat(s.Delivered),
			strconv.Itoa(int(s.Action)),
			strconv.FormatBool(s.FaultActive),
			strconv.Itoa(int(s.Hazard)),
			strconv.FormatBool(s.Alarm),
			strconv.Itoa(int(s.AlarmHazard)),
			strconv.FormatBool(s.Mitigated),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("write sample %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("flush csv: %w", err)
	}
	return nil
}

// ReadCSV parses a trace previously written by WriteCSV and validates
// it (see Trace.Validate).
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	meta, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read meta: %w", err)
	}
	if (len(meta) != metaFieldsV1 && len(meta) != metaFieldsV2) || meta[0] != "#meta" {
		return nil, fmt.Errorf("malformed meta record (%d fields)", len(meta))
	}
	t := &Trace{PatientID: meta[1], Platform: meta[2]}
	if t.InitialBG, err = strconv.ParseFloat(meta[3], 64); err != nil {
		return nil, fmt.Errorf("parse initial bg: %w", err)
	}
	if t.CycleMin, err = strconv.ParseFloat(meta[4], 64); err != nil {
		return nil, fmt.Errorf("parse cycle min: %w", err)
	}
	t.Fault.Name, t.Fault.Kind, t.Fault.Target = meta[5], meta[6], meta[7]
	if t.Fault.StartStep, err = strconv.Atoi(meta[8]); err != nil {
		return nil, fmt.Errorf("parse fault start: %w", err)
	}
	if t.Fault.Duration, err = strconv.Atoi(meta[9]); err != nil {
		return nil, fmt.Errorf("parse fault duration: %w", err)
	}
	if t.Fault.Value, err = strconv.ParseFloat(meta[10], 64); err != nil {
		return nil, fmt.Errorf("parse fault value: %w", err)
	}
	if len(meta) >= metaFieldsV2 {
		if t.Basal, err = strconv.ParseFloat(meta[11], 64); err != nil {
			return nil, fmt.Errorf("parse basal: %w", err)
		}
	}

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("header has %d columns, want %d", len(header), len(csvHeader))
	}
	// Validate column names, not just the count: a reordered or foreign
	// CSV would otherwise parse into silently wrong fields.
	for i, name := range header {
		if name != csvHeader[i] {
			return nil, fmt.Errorf("header column %d is %q, want %q", i, name, csvHeader[i])
		}
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read record: %w", err)
		}
		s, err := parseSample(rec)
		if err != nil {
			return nil, err
		}
		t.Samples = append(t.Samples, s)
	}
	// Fail closed: a trace that parses but is inconsistent (a step that
	// does not match its position, a non-finite cycle length, ...) would
	// otherwise surface later as an out-of-range index or a silently
	// wrong label in training and replay.
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func parseSample(rec []string) (Sample, error) {
	var s Sample
	if len(rec) != len(csvHeader) {
		return s, fmt.Errorf("record has %d columns, want %d", len(rec), len(csvHeader))
	}
	var err error
	if s.Step, err = strconv.Atoi(rec[0]); err != nil {
		return s, fmt.Errorf("parse step: %w", err)
	}
	floats := []*float64{
		&s.TimeMin, &s.BG, &s.CGM, &s.IOB, &s.BGPrime, &s.IOBPrime,
		&s.Rate, &s.Delivered,
	}
	for i, dst := range floats {
		if *dst, err = strconv.ParseFloat(rec[i+1], 64); err != nil {
			return s, fmt.Errorf("parse %s: %w", csvHeader[i+1], err)
		}
	}
	action, err := strconv.Atoi(rec[9])
	if err != nil {
		return s, fmt.Errorf("parse action: %w", err)
	}
	s.Action = Action(action)
	if s.FaultActive, err = strconv.ParseBool(rec[10]); err != nil {
		return s, fmt.Errorf("parse fault_active: %w", err)
	}
	hazard, err := strconv.Atoi(rec[11])
	if err != nil {
		return s, fmt.Errorf("parse hazard: %w", err)
	}
	s.Hazard = HazardType(hazard)
	if s.Alarm, err = strconv.ParseBool(rec[12]); err != nil {
		return s, fmt.Errorf("parse alarm: %w", err)
	}
	ah, err := strconv.Atoi(rec[13])
	if err != nil {
		return s, fmt.Errorf("parse alarm_hazard: %w", err)
	}
	s.AlarmHazard = HazardType(ah)
	if s.Mitigated, err = strconv.ParseBool(rec[14]); err != nil {
		return s, fmt.Errorf("parse mitigated: %w", err)
	}
	return s, nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
