package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"cchunter"
)

// pinnedSeed is the seed whose benign verdicts are pinned
// in testdata/verdicts.json. Every other seed is checked by rule.
const pinnedSeed = 1

// verdictTolerance is the relative tolerance on pinned likelihood
// ratios and peak values, the same as the repo's bench comparator.
const verdictTolerance = 1e-6

//go:embed testdata/verdicts.json
var pinnedJSON []byte

// verdict is the part of one scenario op's outcome the digest pins.
type verdict struct {
	Op        string    `json:"op"`
	Detected  bool      `json:"detected"`
	Detectors []string  `json:"detectors"` // contention kinds in report order, then "oscillation"
	Flags     []bool    `json:"flags"`     // each detector's verdict, parallel to Detectors
	PeakLag   int       `json:"peak_lag"`
	BitErrors int       `json:"bit_errors"`
	EndCycle  uint64    `json:"end_cycle"`
	LR        []float64 `json:"lr"` // each contention detector's likelihood ratio
	Peak      float64   `json:"peak"`
}

// verdictOf extracts the pinned fields from a scenario result.
func verdictOf(name string, res *cchunter.Result) verdict {
	r := res.Report
	v := verdict{Op: name, Detected: r.Detected, BitErrors: res.BitErrors, EndCycle: res.EndCycle}
	for _, c := range r.Contention {
		v.Detectors = append(v.Detectors, c.Kind.String())
		v.Flags = append(v.Flags, c.Analysis.Detected)
		v.LR = append(v.LR, c.Analysis.LikelihoodRatio)
	}
	if o := r.Oscillation; o != nil {
		v.Detectors = append(v.Detectors, "oscillation")
		v.Flags = append(v.Flags, o.Detected)
		v.PeakLag = o.Best.FundamentalLag
		v.Peak = o.Best.PeakValue
	}
	return v
}

// discrete is the exactly-compared part of a verdict, encoded.
func (v verdict) discrete() []byte {
	d := v
	d.LR, d.Peak = nil, 0
	b, _ := json.Marshal(d) // plain struct of strings, bools and ints: cannot fail
	return b
}

// mismatch describes how got differs from v, or returns "" when the
// discrete fields are equal and the floats agree within tolerance.
func (v verdict) mismatch(got verdict) string {
	if !bytes.Equal(v.discrete(), got.discrete()) {
		return fmt.Sprintf("verdict %s, pinned %s", got.discrete(), v.discrete())
	}
	if len(v.LR) != len(got.LR) {
		return fmt.Sprintf("%d likelihood ratios, pinned %d", len(got.LR), len(v.LR))
	}
	for i := range v.LR {
		if !within(v.LR[i], got.LR[i]) {
			return fmt.Sprintf("%s LR %.9g, pinned %.9g", v.Detectors[i], got.LR[i], v.LR[i])
		}
	}
	if !within(v.Peak, got.Peak) {
		return fmt.Sprintf("peak %.9g, pinned %.9g", got.Peak, v.Peak)
	}
	return ""
}

// within reports whether a and b agree within verdictTolerance, relative
// to the larger magnitude.
func within(a, b float64) bool {
	return math.Abs(a-b) <= verdictTolerance*math.Max(math.Abs(a), math.Abs(b))
}

// digest is a short hash of the verdicts' discrete fields, printed so
// two runs can be compared at a glance.
func digest(vs []verdict) string {
	h := fnv.New64a()
	for _, v := range vs {
		h.Write(v.discrete())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinnedVerdicts returns the pinned verdicts of a workload by op name
// for seed pinnedSeed, and nil for any other seed.
func pinnedVerdicts(workload string, seed uint64) (map[string]verdict, error) {
	if seed != pinnedSeed {
		return nil, nil
	}
	var all map[string][]verdict
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("reading pinned verdicts: %w", err)
	}
	vs, ok := all[workload]
	if !ok || len(vs) == 0 {
		return nil, fmt.Errorf("no pinned verdicts for workload %q", workload)
	}
	out := make(map[string]verdict, len(vs))
	for _, v := range vs {
		out[v.Op] = v
	}
	return out, nil
}

// reportBytes encodes a report for byte comparison: its JSON form
// without the metrics snapshot, followed by each contention
// histogram's bins, which JSON does not show.
func reportBytes(r cchunter.Report) ([]byte, error) {
	r.Metrics = nil
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(r); err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	for _, c := range r.Contention {
		if h := c.Analysis.Histogram; h != nil {
			if err := enc.Encode([]interface{}{h.Bins(), h.Clamped(), h.Invalid()}); err != nil {
				return nil, fmt.Errorf("encoding histogram: %w", err)
			}
		}
	}
	return buf.Bytes(), nil
}

// reportEvents counts the indicator events a report's detectors
// analyzed: every contention event in the burst histograms (density ×
// windows) plus every conflict-miss entry in the oscillation windows.
func reportEvents(r cchunter.Report) uint64 {
	var n uint64
	for _, c := range r.Contention {
		if h := c.Analysis.Histogram; h != nil {
			for d := 1; d < h.NumBins(); d++ {
				n += uint64(d) * h.Bin(d)
			}
		}
	}
	if o := r.Oscillation; o != nil {
		for _, w := range o.Windows {
			n += uint64(w.Events)
		}
	}
	return n
}
