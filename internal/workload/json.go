package workload

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonSpec mirrors Spec for JSON (de)serialization with explicit field
// names, so users can define custom workloads in configuration files and
// run them through `hybridsim trace -specs` or the experiments API.
type jsonSpec struct {
	Name         string      `json:"name"`
	WorkingSetKB int         `json:"working_set_kb"`
	Reads        int64       `json:"reads"`
	Writes       int64       `json:"writes"`
	Pattern      jsonPattern `json:"pattern"`
}

type jsonPattern struct {
	ResidentFraction float64 `json:"resident_fraction"`
	HotFraction      float64 `json:"hot_fraction"`
	HotBias          float64 `json:"hot_bias"`
	SeqRunLen        int     `json:"seq_run_len"`
	RepeatBurst      int     `json:"repeat_burst"`
	PhaseAccesses    int64   `json:"phase_accesses,omitempty"`
	PhaseShiftPages  int     `json:"phase_shift_pages,omitempty"`
	WriteHotFraction float64 `json:"write_hot_fraction"`
	WriteHotBias     float64 `json:"write_hot_bias"`
	ROIArchiveVisits float64 `json:"roi_archive_visits"`
	MeanGapNS        float64 `json:"mean_gap_ns"`
}

func fromJSON(j jsonSpec) Spec {
	return Spec{
		Name:         j.Name,
		WorkingSetKB: j.WorkingSetKB,
		Reads:        j.Reads,
		Writes:       j.Writes,
		Pattern: Pattern{
			ResidentFraction: j.Pattern.ResidentFraction,
			HotFraction:      j.Pattern.HotFraction,
			HotBias:          j.Pattern.HotBias,
			SeqRunLen:        j.Pattern.SeqRunLen,
			RepeatBurst:      j.Pattern.RepeatBurst,
			PhaseAccesses:    j.Pattern.PhaseAccesses,
			PhaseShiftPages:  j.Pattern.PhaseShiftPages,
			WriteHotFraction: j.Pattern.WriteHotFraction,
			WriteHotBias:     j.Pattern.WriteHotBias,
			ROIArchiveVisits: j.Pattern.ROIArchiveVisits,
			MeanGapNS:        j.Pattern.MeanGapNS,
		},
	}
}

func toJSON(s Spec) jsonSpec {
	return jsonSpec{
		Name:         s.Name,
		WorkingSetKB: s.WorkingSetKB,
		Reads:        s.Reads,
		Writes:       s.Writes,
		Pattern: jsonPattern{
			ResidentFraction: s.Pattern.ResidentFraction,
			HotFraction:      s.Pattern.HotFraction,
			HotBias:          s.Pattern.HotBias,
			SeqRunLen:        s.Pattern.SeqRunLen,
			RepeatBurst:      s.Pattern.RepeatBurst,
			PhaseAccesses:    s.Pattern.PhaseAccesses,
			PhaseShiftPages:  s.Pattern.PhaseShiftPages,
			WriteHotFraction: s.Pattern.WriteHotFraction,
			WriteHotBias:     s.Pattern.WriteHotBias,
			ROIArchiveVisits: s.Pattern.ROIArchiveVisits,
			MeanGapNS:        s.Pattern.MeanGapNS,
		},
	}
}

// LoadSpecs reads and validates a JSON array of workload specs.
func LoadSpecs(r io.Reader) ([]Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var raw []jsonSpec
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("workload: parsing specs: %w", err)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("workload: no specs in input")
	}
	specs := make([]Spec, 0, len(raw))
	seen := map[string]bool{}
	for _, j := range raw {
		s := fromJSON(j)
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("workload: duplicate spec %q", s.Name)
		}
		seen[s.Name] = true
		specs = append(specs, s)
	}
	return specs, nil
}

// SaveSpecs writes specs as indented JSON (the format LoadSpecs reads).
func SaveSpecs(w io.Writer, specs []Spec) error {
	raw := make([]jsonSpec, len(specs))
	for i, s := range specs {
		raw[i] = toJSON(s)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(raw)
}
