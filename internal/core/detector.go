package core

import (
	"fmt"
	"strings"
	"sync"

	"cchunter/internal/auditor"
	"cchunter/internal/obs"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// DetectorConfig combines the two algorithms' parameters with the
// daemon's observation policy.
type DetectorConfig struct {
	// QuantumCycles is the OS time quantum.
	QuantumCycles uint64
	// Burst configures recurrent burst pattern detection.
	Burst BurstConfig
	// Oscillation configures oscillatory pattern detection.
	Oscillation OscillationConfig
	// ObservationDivisor splits each quantum into this many oscillation
	// observation windows (§VI-A: finer-grained windows — 0.75×, 0.5×,
	// 0.25× of a quantum — detect low-bandwidth channels more
	// effectively). 1 analyzes whole quanta.
	ObservationDivisor int
	// UpstreamLossRate is the fraction of indicator events known to
	// have been lost *before* the auditor saw them (a fault injector or
	// a real telemetry path that reports its own drops). It folds into
	// every verdict's Degradation; 0 for a pristine sensor path.
	UpstreamLossRate float64
	// Metrics, when non-nil, receives analysis observability: per-stage
	// timing spans (burst scan, oscillation lag scan), window and
	// verdict counters, and FFT-vs-naive autocorrelation path tallies.
	// Observational only — verdicts are byte-identical either way.
	Metrics *obs.Registry
}

// DefaultDetectorConfig returns the paper-calibrated detector for a
// machine with the given quantum and hardware context count.
func DefaultDetectorConfig(quantumCycles uint64, contexts int) DetectorConfig {
	return DetectorConfig{
		QuantumCycles:      quantumCycles,
		Burst:              DefaultBurstConfig(),
		Oscillation:        DefaultOscillationConfig(contexts),
		ObservationDivisor: 1,
	}
}

// Degradation qualifies a verdict rendered from an imperfect sensor
// path. A detector that keeps producing verdicts under dropped or
// saturated events must say how much it saw; "no channel" from a
// sensor that lost half its events is a different statement than "no
// channel" from a pristine one.
type Degradation struct {
	// EventLossRate is the estimated fraction of indicator events the
	// sensor path lost before this detector analyzed them (upstream
	// drops plus, for the cache detector, vector-register overruns).
	EventLossRate float64
	// SaturationRate is the fraction of Δt observation windows whose
	// recorded density is a floor rather than an exact count (16-bit
	// accumulator ceilings and 128-entry histogram-bin clamps).
	SaturationRate float64
	// ClampedTimestamps counts recorded events whose arrival order
	// contradicted their timestamps; non-zero means the train's
	// fine-grained ordering is partly reconstructed.
	ClampedTimestamps uint64
	// Confidence folds the diagnostics into one [0,1] factor: the
	// fraction of the evidence base that was delivered intact. 1 means
	// a pristine path; verdicts at low confidence should be re-observed
	// rather than acted on.
	Confidence float64
	// Degraded reports whether any diagnostic is non-zero.
	Degraded bool
}

// NewDegradation folds raw sensor-path diagnostics into a Degradation,
// exactly as the batch detector does internally. Exported for the
// streaming daemon (internal/stream), which assembles verdicts outside
// this package and must qualify them identically.
func NewDegradation(lossRate, satRate float64, clamped, events uint64) Degradation {
	return degradation(lossRate, satRate, clamped, events)
}

// degradation folds raw diagnostics into the exported struct.
func degradation(lossRate, satRate float64, clamped, events uint64) Degradation {
	d := Degradation{
		EventLossRate:     clamp01(lossRate),
		SaturationRate:    clamp01(satRate),
		ClampedTimestamps: clamped,
	}
	clampShare := 0.0
	if events > 0 {
		clampShare = clamp01(float64(clamped) / float64(events))
	}
	d.Confidence = (1 - d.EventLossRate) * (1 - d.SaturationRate) * (1 - clampShare)
	d.Degraded = d.Confidence < 1 || clamped > 0
	return d
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// ContentionVerdict is the burst-detection outcome for one monitored
// combinational unit.
type ContentionVerdict struct {
	Kind     trace.Kind
	Analysis BurstAnalysis
	// Degradation qualifies the verdict's sensor-path health.
	Degradation Degradation
}

// OscillationVerdict is the oscillation-detection outcome for the
// monitored cache.
type OscillationVerdict struct {
	// Windows holds every non-empty observation window's analysis.
	Windows []OscillationAnalysis
	// Best is the strongest window (see BestWindow).
	Best OscillationAnalysis
	// DetectedWindows counts windows with sustained periodicity.
	DetectedWindows int
	// Detected reports the overall oscillation verdict.
	Detected bool
	// Degradation qualifies the verdict's sensor-path health.
	Degradation Degradation
}

// Report is a full CC-Hunter analysis over one run.
type Report struct {
	// Contention holds one verdict per monitored combinational unit.
	Contention []ContentionVerdict
	// Oscillation holds the cache verdict; nil when conflict
	// monitoring was off.
	Oscillation *OscillationVerdict
	// Detected reports whether any monitored resource shows a covert
	// timing channel.
	Detected bool
	// Confidence is the weakest per-detector confidence in the report
	// (1 when every sensor path was pristine). A verdict — either way —
	// at low confidence calls for re-observation, not silence.
	Confidence float64
	// Metrics is a snapshot of the pipeline's observability registry,
	// present only when a run was instrumented (DetectorConfig.Metrics
	// or Scenario.Metrics). It never influences any verdict field and
	// is omitted from the rendered summary.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Streaming carries the streaming daemon's extra evidence (onset
	// times, retention bounds). The batch detector leaves it nil.
	Streaming *StreamingInfo `json:"streaming,omitempty"`
	// Failure is the non-empty reason when a supervised detector job
	// died (panic, watchdog) and this report is a degraded placeholder
	// rather than an analysis (see DegradedReport).
	Failure string `json:"failure,omitempty"`
}

// Failed reports whether this is a degraded placeholder from a crashed
// or timed-out detector job rather than a rendered analysis.
func (r Report) Failed() bool { return r.Failure != "" }

// String renders a terse human-readable summary.
func (r Report) String() string {
	var sb strings.Builder
	if r.Failure != "" {
		fmt.Fprintf(&sb, "verdict: detector failed (%s); no detection claim, re-observe", r.Failure)
		return sb.String()
	}
	for _, c := range r.Contention {
		fmt.Fprintf(&sb, "%s: detected=%v LR=%.3f threshold=%d burstQuanta=%d\n",
			c.Kind, c.Analysis.Detected, c.Analysis.LikelihoodRatio,
			c.Analysis.ThresholdDensity, c.Analysis.BurstQuanta)
	}
	if r.Oscillation != nil {
		fmt.Fprintf(&sb, "cache: detected=%v peak=%.3f at lag %d (%d/%d windows)\n",
			r.Oscillation.Detected, r.Oscillation.Best.PeakValue,
			r.Oscillation.Best.FundamentalLag, r.Oscillation.DetectedWindows,
			len(r.Oscillation.Windows))
	}
	fmt.Fprintf(&sb, "verdict: covert timing channel detected=%v", r.Detected)
	if r.Confidence < 1 {
		fmt.Fprintf(&sb, " (confidence %.3f: degraded sensor path)", r.Confidence)
	}
	return sb.String()
}

// Detector is the CC-Hunter software daemon's analysis half: it reads
// the CC-Auditor's recorded buffers and renders verdicts.
type Detector struct {
	aud *auditor.Auditor
	cfg DetectorConfig
	ws  *stats.Workspace
	kws *stats.KmeansWorkspace
}

// wsPool recycles autocorrelation workspaces across detectors. The
// FFT scratch, twiddle table, and centered-copy buffers dominate a
// detector's footprint; on the experiment runner, where every scenario
// job builds a fresh Detector, reuse means the steady state allocates
// no analysis scratch at all. A recycled workspace is handed over with
// its tallies reset and its buffers re-grown on first use, so results
// are identical to a fresh one.
var wsPool = sync.Pool{New: func() any { return stats.NewWorkspace() }}

// borrowWorkspace takes a workspace from wsPool with its path counts
// reset, so the counts it reports cover only the new owner's calls.
func borrowWorkspace() *stats.Workspace {
	ws := wsPool.Get().(*stats.Workspace)
	ws.ResetCounts()
	return ws
}

// kwsPool does the same for the burst detector's k-means scratch. A
// KmeansWorkspace carries no counters or results across uses — every
// method re-zeroes the scratch it hands out — so recycling is
// result-neutral by construction.
var kwsPool = sync.Pool{New: func() any { return new(stats.KmeansWorkspace) }}

// NewDetector wraps an auditor. The auditor keeps collecting; call
// Analyze whenever a verdict is needed, and Release when the detector
// is done to recycle its scratch workspace.
func NewDetector(aud *auditor.Auditor, cfg DetectorConfig) *Detector {
	if aud == nil {
		panic("core: detector needs an auditor")
	}
	if cfg.QuantumCycles == 0 {
		panic("core: detector needs the quantum length")
	}
	if cfg.ObservationDivisor <= 0 {
		cfg.ObservationDivisor = 1
	}
	d := &Detector{aud: aud, cfg: cfg}
	if d.cfg.Oscillation.Workspace == nil {
		// One scratch workspace serves every couple and observation
		// window this detector ever analyzes; Analyze is synchronous,
		// so the borrow never overlaps.
		d.ws = borrowWorkspace()
		d.cfg.Oscillation.Workspace = d.ws
	}
	if d.cfg.Burst.Workspace == nil {
		d.kws = kwsPool.Get().(*stats.KmeansWorkspace)
		d.cfg.Burst.Workspace = d.kws
	}
	return d
}

// Release returns the detector's pooled workspace to the arena. Only
// detectors that own their workspace (NewDetector created it) give one
// back; a caller-supplied OscillationConfig.Workspace stays with the
// caller. The detector must not be used after Release.
func (d *Detector) Release() {
	if d.kws != nil {
		kwsPool.Put(d.kws)
		d.kws = nil
		d.cfg.Burst.Workspace = nil
	}
	if d.ws == nil {
		return
	}
	wsPool.Put(d.ws)
	d.ws = nil
	d.cfg.Oscillation.Workspace = nil
}

// Analyze flushes the auditor up to endCycle and runs both detection
// algorithms over everything recorded so far.
func (d *Detector) Analyze(endCycle uint64) Report {
	reg := d.cfg.Metrics
	span := reg.Timer("detect.analyze_ns").Start()
	d.aud.Flush(endCycle)
	rep := Report{Confidence: 1}
	for _, kind := range BurstKinds {
		recs := d.aud.Histograms(kind)
		if d.aud.DeltaT(kind) == 0 {
			continue // not monitored
		}
		burstSpan := reg.Timer("detect.burst_ns").Start()
		a := AnalyzeBursts(recs, d.cfg.Burst)
		burstSpan.End()
		integ := d.aud.Integrity(kind)
		deg := degradation(d.cfg.UpstreamLossRate, integ.SaturationRate(), 0, integ.Windows)
		rep.Contention = append(rep.Contention, ContentionVerdict{Kind: kind, Analysis: a, Degradation: deg})
		if a.Detected {
			rep.Detected = true
		}
		if deg.Confidence < rep.Confidence {
			rep.Confidence = deg.Confidence
		}
	}
	if train := d.aud.ConflictTrain(); train != nil {
		window := d.cfg.QuantumCycles / uint64(d.cfg.ObservationDivisor)
		if window == 0 {
			window = d.cfg.QuantumCycles
		}
		oscSpan := reg.Timer("detect.oscillation_ns").Start()
		v := &OscillationVerdict{
			Windows: AnalyzeOscillationWindows(train, 0, endCycle, window, d.cfg.Oscillation),
		}
		oscSpan.End()
		reg.Counter("detect.windows").Add(uint64(len(v.Windows)))
		v.Best, _ = BestWindow(v.Windows)
		for _, w := range v.Windows {
			if w.Detected {
				v.DetectedWindows++
			}
		}
		v.Detected = v.DetectedWindows >= 1
		ci := d.aud.ConflictIntegrity()
		// Losses compose: an event survives the path only if it passes
		// both the upstream sensor faults and the vector registers.
		loss := 1 - (1-clamp01(d.cfg.UpstreamLossRate))*(1-ci.LossRate())
		v.Degradation = degradation(loss, 0, ci.ClampedTimestamps, ci.Recorded)
		rep.Oscillation = v
		if v.Detected {
			rep.Detected = true
		}
		if v.Degradation.Confidence < rep.Confidence {
			rep.Confidence = v.Degradation.Confidence
		}
	}
	span.End()
	if reg != nil {
		// The lag scans above ran through the detector's workspace;
		// publish which side of the FFT crossover they landed on.
		if d.ws != nil {
			fft, naive := d.ws.PathCounts()
			reg.Gauge("stats.autocorr.fft").Set(int64(fft))
			reg.Gauge("stats.autocorr.naive").Set(int64(naive))
		}
		rep.Metrics = reg.Snapshot()
	}
	return rep
}
