package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"cchunter/internal/stats"
)

// bench.go is the benchmark-trajectory emitter: ccrepro -bench-out
// wraps each figure job in wall-clock and allocation accounting and
// writes one JSON document per run. CI compares successive documents
// (tools/benchcmp) so a performance regression in the detection
// pipeline fails the build instead of silently accumulating.

// BenchSchema versions the report format for the comparison tool.
const BenchSchema = "cchunter-bench/1"

// BenchFigure is one figure's measured cost and key detection metrics.
// The metrics pin correctness alongside speed: a "faster" pipeline
// that changes a likelihood ratio or a fundamental lag is a broken
// pipeline, and the comparison tool treats metric drift as failure.
type BenchFigure struct {
	// ID is the figure identifier as passed to -fig.
	ID string `json:"id"`
	// NS is the figure's wall-clock time in nanoseconds.
	NS int64 `json:"ns"`
	// Allocs and Bytes are the heap allocation count and volume during
	// the figure (runtime.MemStats deltas; valid because -bench-out
	// forces serial execution).
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
	// Metrics are the figure's scalar detection outcomes (likelihood
	// ratios, peak lags, bit errors ...). Deterministic given seed and
	// scale, so the comparison is (near-)exact.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchReport is the whole -bench-out document.
type BenchReport struct {
	Schema string `json:"schema"`
	// CalibrationNS is the runtime of a fixed reference workload on
	// the machine that produced the report. Comparing ns across
	// machines is meaningless; comparing ns scaled by the calibration
	// ratio is merely noisy, which a tolerance absorbs.
	CalibrationNS int64         `json:"calibration_ns"`
	GoVersion     string        `json:"go_version"`
	Seed          uint64        `json:"seed"`
	TimeScale     float64       `json:"time_scale"`
	Figures       []BenchFigure `json:"figures"`
}

// Calibrate times the reference workload: the naive autocorrelogram
// sum (n=16384, maxLag=512), best of three. It is floating-point
// multiply-add work like the detection pipeline's, so its runtime
// tracks the machine speed that matters for the figures. It must not
// be code the pipeline's optimizations touch: a faster calibration
// kernel would read as a slower machine and flag every figure as
// regressed, and a slower one would hide real regressions. The naive
// sum is the FFT path's test oracle, kept as the plain loop on purpose.
func Calibrate() int64 {
	xs := make([]float64, 16384)
	for i := range xs {
		xs[i] = float64(i%17) - 8
	}
	best := int64(0)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		stats.AutocorrelogramNaive(xs, 512)
		ns := time.Since(t0).Nanoseconds()
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// NewBenchReport returns an empty report stamped with the current
// machine calibration and toolchain.
func NewBenchReport(seed uint64, timeScale float64) BenchReport {
	return BenchReport{
		Schema:        BenchSchema,
		CalibrationNS: Calibrate(),
		GoVersion:     runtime.Version(),
		Seed:          seed,
		TimeScale:     timeScale,
	}
}

// WriteBenchReport writes the report as indented JSON. Map keys
// marshal sorted, so equal reports produce equal bytes.
func WriteBenchReport(w io.Writer, rep BenchReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadBenchReport parses a -bench-out document, rejecting unknown
// schemas.
func ReadBenchReport(r io.Reader) (BenchReport, error) {
	var rep BenchReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return rep, err
	}
	if rep.Schema != BenchSchema {
		return rep, fmt.Errorf("experiments: unknown bench schema %q", rep.Schema)
	}
	return rep, nil
}

// BenchMetrics extracts the scalar detection outcomes of a figure
// result for the benchmark trajectory. Unknown result types get no
// metrics (their timing is still recorded).
func BenchMetrics(result interface{}) map[string]float64 {
	m := map[string]float64{}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	switch r := result.(type) {
	case Figure2Result:
		m["bit_errors"] = float64(r.BitErrors)
	case Figure3Result:
		m["bit_errors"] = float64(r.BitErrors)
	case Figure4Result:
		m["bus_events"] = float64(r.BusLocks.Len())
		m["div_events"] = float64(r.DivContention.Len())
	case Figure5Result:
		m["windows"] = float64(len(r.Densities))
	case Figure6Result:
		m["bus_lr"] = r.BusLR
		m["div_lr"] = r.DivLR
		m["bus_threshold"] = float64(r.BusThreshold)
		m["div_threshold"] = float64(r.DivThreshold)
	case Figure7Result:
		m["bit_errors"] = float64(r.BitErrors)
	case Figure8Result:
		m["peak_lag"] = float64(r.PeakLag)
		m["peak_value"] = r.PeakValue
		m["detected"] = b2f(r.Detected)
	case Figure10Result:
		for _, row := range r.Rows {
			key := fmt.Sprintf("%s_%gbps", row.Channel, row.PaperBPS)
			if row.Hist != nil {
				m[key+"_lr"] = row.LikelihoodRatio
			} else {
				m[key+"_peak"] = row.PeakValue
			}
			m[key+"_detected"] = b2f(row.Detected)
		}
	case Figure11Result:
		for _, row := range r.Rows {
			key := fmt.Sprintf("window_%g", row.Fraction)
			m[key+"_peak"] = row.PeakValue
			m[key+"_detected"] = b2f(row.Detected)
		}
	case Figure12Result:
		m["bus_lr_min"] = r.BusLRMin
		m["div_lr_min"] = r.DivLRMin
		m["cache_peak_min"] = r.CachePeakMin
		m["all_detected"] = b2f(r.AllDetected)
	case Figure13Result:
		for _, row := range r.Rows {
			key := fmt.Sprintf("sets_%d", row.Sets)
			m[key+"_lag"] = float64(row.PeakLag)
			m[key+"_peak"] = row.PeakValue
		}
	case Figure14Result:
		m["false_alarms"] = float64(r.FalseAlarms)
		m["pairs"] = float64(len(r.Rows))
	case TableIResult:
		cm := r.Model
		m["area_mm2"] = cm.HistogramBuffers.AreaMM2 + cm.Registers.AreaMM2 +
			cm.ConflictMissDetector.AreaMM2
		m["power_mw"] = cm.HistogramBuffers.PowerMW + cm.Registers.PowerMW +
			cm.ConflictMissDetector.PowerMW
	case MitigationResult:
		for _, row := range r.Rows {
			mit := row.Mitigation
			if mit == "" {
				mit = "none"
			}
			m[fmt.Sprintf("%s_%s_errrate", row.Channel, mit)] = row.ErrorRate()
		}
	case EvasionResult:
		for _, row := range r.Rows {
			key := fmt.Sprintf("noise_%g", row.Noise)
			m[key+"_lr"] = row.LikelihoodRatio
			m[key+"_errrate"] = row.ErrorRate
		}
		for _, row := range r.Frontier {
			key := fmt.Sprintf("frontier_%s_j%g_d%g", row.Channel, row.Jitter, row.Duty)
			m[key+"_stat"] = row.Statistic
			m[key+"_detected"] = b2f(row.Detected)
			m[key+"_errrate"] = row.ErrorRate
		}
	case RobustnessResult:
		m["baseline_identical"] = b2f(r.BaselineIdentical)
		for _, row := range r.Rows {
			key := fmt.Sprintf("%s_drop_%g", row.Channel, row.DropRate)
			m[key+"_detected"] = b2f(row.Detected)
			m[key+"_confidence"] = row.Confidence
		}
	default:
		return nil
	}
	return m
}
