package core

import (
	"math"
	"testing"

	"cchunter/internal/pool"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

func traceBus() trace.Kind  { return trace.KindBusLock }
func traceDiv() trace.Kind  { return trace.KindDivContention }
func traceConf() trace.Kind { return trace.KindConflictMiss }

// channelTrain builds a conflict-miss train like the cache channel's:
// per bit, a run of (trojan→spy) entries over half the sets followed
// by a run of (spy→trojan) entries — period = sets.
func channelTrain(bits, sets int, gap uint64) *trace.Train {
	tr := trace.NewTrain(bits * sets)
	cycle := uint64(0)
	for b := 0; b < bits; b++ {
		for s := 0; s < sets/2; s++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss,
				Actor: 0, Victim: 1, Unit: uint32(s)})
			cycle += gap
		}
		for s := 0; s < sets/2; s++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss,
				Actor: 1, Victim: 0, Unit: uint32(s)})
			cycle += gap
		}
	}
	return tr
}

// noisyChannelTrain interleaves channel entries with random other-pair
// noise at the given probability per entry.
func noisyChannelTrain(bits, sets int, gap uint64, noiseProb float64, seed uint64) *trace.Train {
	base := channelTrain(bits, sets, gap)
	rng := stats.NewRNG(seed)
	tr := trace.NewTrain(base.Len())
	for _, e := range base.Events() {
		tr.Append(e)
		if rng.Float64() < noiseProb {
			tr.Append(trace.Event{Cycle: e.Cycle, Kind: trace.KindConflictMiss,
				Actor: uint8(2 + rng.Intn(4)), Victim: uint8(2 + rng.Intn(4)),
				Unit: uint32(rng.Intn(1024))})
		}
	}
	return tr
}

func TestOscillationDetectsCacheChannel(t *testing.T) {
	tr := channelTrain(8, 512, 100)
	a := AnalyzeOscillation(tr, DefaultOscillationConfig(8))
	if !a.Detected {
		t.Fatalf("clean channel not detected: %+v", a)
	}
	if a.FundamentalLag < 480 || a.FundamentalLag > 545 {
		t.Errorf("fundamental lag = %d, want ≈512 (the number of sets)", a.FundamentalLag)
	}
	if a.PeakValue < 0.85 {
		t.Errorf("peak = %v, want ≥0.85 as in Figure 8b", a.PeakValue)
	}
	if a.Harmonics < 2 {
		t.Errorf("harmonics = %d", a.Harmonics)
	}
}

func TestOscillationLagTracksSetCount(t *testing.T) {
	// Figure 13: fewer sets → proportionally shorter period.
	for _, sets := range []int{64, 128, 256} {
		a := AnalyzeOscillation(channelTrain(16, sets, 100), DefaultOscillationConfig(8))
		if !a.Detected {
			t.Errorf("%d sets: not detected", sets)
			continue
		}
		lo, hi := sets*85/100, sets*115/100
		if a.FundamentalLag < lo || a.FundamentalLag > hi {
			t.Errorf("%d sets: fundamental = %d, want within 15%%", sets, a.FundamentalLag)
		}
	}
}

func TestOscillationSurvivesNoise(t *testing.T) {
	// Random conflicts from other contexts shift the peak slightly
	// (the paper sees 533 instead of 512) but must not erase it.
	a := AnalyzeOscillation(noisyChannelTrain(8, 512, 100, 0.05, 3), DefaultOscillationConfig(8))
	if !a.Detected {
		t.Fatalf("noisy channel not detected: peak=%v lag=%d", a.PeakValue, a.FundamentalLag)
	}
	if a.FundamentalLag < 500 || a.FundamentalLag > 600 {
		t.Errorf("noisy fundamental = %d, want slightly above 512", a.FundamentalLag)
	}
}

func TestOscillationRejectsRandomTraffic(t *testing.T) {
	rng := stats.NewRNG(11)
	tr := trace.NewTrain(4096)
	for i := uint64(0); i < 4096; i++ {
		tr.Append(trace.Event{Cycle: i * 50, Kind: trace.KindConflictMiss,
			Actor: uint8(rng.Intn(8)), Victim: uint8(rng.Intn(8)), Unit: uint32(rng.Intn(512))})
	}
	a := AnalyzeOscillation(tr, DefaultOscillationConfig(8))
	if a.Detected {
		t.Errorf("random traffic detected as covert: %+v", a)
	}
}

func TestOscillationRejectsBriefPeriodicity(t *testing.T) {
	// The paper's webserver shows periodicity between lags 120–180
	// that dies out: a couple of periods then noise. MinHarmonics=2
	// must reject it when the second harmonic is absent.
	tr := trace.NewTrain(2048)
	cycle := uint64(0)
	rng := stats.NewRNG(13)
	// Two clean periods of 150, then pure noise.
	for p := 0; p < 2; p++ {
		for i := 0; i < 75; i++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: 0, Victim: 1, Unit: uint32(i)})
			cycle += 10
		}
		for i := 0; i < 75; i++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: 1, Victim: 0, Unit: uint32(i)})
			cycle += 10
		}
	}
	for i := 0; i < 1500; i++ {
		tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss,
			Actor: uint8(rng.Intn(8)), Victim: uint8(rng.Intn(8)), Unit: uint32(rng.Intn(512))})
		cycle += 10
	}
	a := AnalyzeOscillation(tr, DefaultOscillationConfig(8))
	if a.Detected {
		t.Errorf("brief periodicity flagged as covert: %+v", a)
	}
}

func TestOscillationEmptyAndTiny(t *testing.T) {
	if a := AnalyzeOscillation(nil, DefaultOscillationConfig(8)); a.Detected {
		t.Error("nil train detected")
	}
	tr := trace.NewTrain(2)
	tr.Append(trace.Event{Cycle: 1, Actor: 0, Victim: 1})
	if a := AnalyzeOscillation(tr, DefaultOscillationConfig(8)); a.Detected || a.Events != 1 {
		t.Error("tiny train should not be analyzable")
	}
}

func TestOscillationConstantPairNotDetected(t *testing.T) {
	// All events from one pair: constant label series, zero variance.
	tr := trace.NewTrain(512)
	for i := uint64(0); i < 512; i++ {
		tr.Append(trace.Event{Cycle: i, Kind: trace.KindConflictMiss, Actor: 0, Victim: 1, Unit: uint32(i % 7)})
	}
	if a := AnalyzeOscillation(tr, DefaultOscillationConfig(8)); a.Detected {
		t.Error("constant series detected as oscillation")
	}
}

func TestAnalyzeOscillationWindows(t *testing.T) {
	// Channel active only in [0, 100k); the rest quiet. Windowed
	// analysis isolates the active window.
	tr := channelTrain(4, 128, 100) // spans 4*128*100 = 51200 cycles
	analyses := AnalyzeOscillationWindows(tr, 0, 400_000, 100_000, DefaultOscillationConfig(8))
	if len(analyses) != 1 {
		t.Fatalf("non-empty windows = %d, want 1", len(analyses))
	}
	if !analyses[0].Detected {
		t.Error("active window not detected")
	}
	best, ok := BestWindow(analyses)
	if !ok || !best.Detected {
		t.Error("BestWindow wrong")
	}
	if _, ok := BestWindow(nil); ok {
		t.Error("BestWindow of empty should be !ok")
	}
	if AnalyzeOscillationWindows(nil, 0, 10, 5, DefaultOscillationConfig(8)) != nil {
		t.Error("nil train should give nil windows")
	}
	if AnalyzeOscillationWindows(tr, 0, 10, 0, DefaultOscillationConfig(8)) != nil {
		t.Error("zero window should give nil")
	}
}

func TestBestWindowPrefersDetected(t *testing.T) {
	a := OscillationAnalysis{Detected: false, PeakValue: 0.9}
	b := OscillationAnalysis{Detected: true, PeakValue: 0.6}
	best, ok := BestWindow([]OscillationAnalysis{a, b})
	if !ok || !best.Detected {
		t.Error("detected window should win over stronger undetected one")
	}
	c := OscillationAnalysis{Detected: true, PeakValue: 0.8}
	best, _ = BestWindow([]OscillationAnalysis{b, c})
	if best.PeakValue != 0.8 {
		t.Error("stronger detected window should win")
	}
}

func TestFinerWindowsHelpLowBandwidth(t *testing.T) {
	// Figure 11's mechanism: the channel is active for a small part of
	// the quantum and noise dominates the rest. Full-quantum analysis
	// dilutes the signal; quarter-quantum windows recover it.
	rng := stats.NewRNG(17)
	tr := trace.NewTrain(8192)
	cycle := uint64(0)
	// Active burst: 6 periods of 128 sets in [0, 160k).
	for b := 0; b < 6; b++ {
		for i := 0; i < 64; i++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: 0, Victim: 1, Unit: uint32(i)})
			cycle += 100
		}
		for i := 0; i < 64; i++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: 1, Victim: 0, Unit: uint32(i)})
			cycle += 100
		}
	}
	// Noise for the rest of the 1M-cycle quantum, 3× the event count.
	for i := 0; i < 2400; i++ {
		tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss,
			Actor: uint8(rng.Intn(8)), Victim: uint8(rng.Intn(8)), Unit: uint32(rng.Intn(512))})
		cycle += 350
	}
	cfg := DefaultOscillationConfig(8)
	full := AnalyzeOscillation(tr, cfg)
	quarters := AnalyzeOscillationWindows(tr, 0, 1_000_000, 250_000, cfg)
	best, ok := BestWindow(quarters)
	if !ok {
		t.Fatal("no quarter windows")
	}
	if !best.Detected {
		t.Fatalf("quarter-window analysis missed the channel: %+v", best)
	}
	if best.PeakValue <= full.PeakValue {
		t.Errorf("finer window peak %v not stronger than full-quantum %v",
			best.PeakValue, full.PeakValue)
	}
}

func TestRawPairSeriesMode(t *testing.T) {
	// Clean channel: raw mode detects like couple mode.
	cfg := DefaultOscillationConfig(8)
	cfg.RawPairSeries = true
	clean := AnalyzeOscillation(channelTrain(8, 256, 100), cfg)
	if !clean.Detected {
		t.Fatalf("raw mode missed a clean channel: %+v", clean)
	}
	if clean.Pair != [2]uint8{0, 1} {
		t.Errorf("dominant pair = %v", clean.Pair)
	}
	if clean.FundamentalLag < 230 || clean.FundamentalLag > 290 {
		t.Errorf("raw fundamental = %d", clean.FundamentalLag)
	}

	// Noisy channel: the raw series dilutes with the noise share while
	// the couple projection holds up — the Figure 11 mechanism.
	noisy := noisyChannelTrain(8, 256, 100, 0.4, 5)
	rawA := AnalyzeOscillation(noisy, cfg)
	cfg.RawPairSeries = false
	coupleA := AnalyzeOscillation(noisy, cfg)
	if !coupleA.Detected {
		t.Fatalf("couple mode missed the noisy channel: %+v", coupleA)
	}
	if rawA.PeakValue >= coupleA.PeakValue {
		t.Errorf("raw peak %v should fall below couple peak %v under noise",
			rawA.PeakValue, coupleA.PeakValue)
	}
}

func TestAppearanceOrderSeries(t *testing.T) {
	tr := trace.NewTrain(0)
	tr.Append(trace.Event{Cycle: 1, Actor: 3, Victim: 4})
	tr.Append(trace.Event{Cycle: 2, Actor: 4, Victim: 3})
	tr.Append(trace.Event{Cycle: 3, Actor: 3, Victim: 4})
	tr.Append(trace.Event{Cycle: 4, Actor: 7, Victim: 1})
	s, _ := rawPairSeries(tr)
	want := []float64{0, 1, 0, 2}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("series = %v, want %v", s, want)
		}
	}
}

func TestDominantCouple(t *testing.T) {
	tr := trace.NewTrain(0)
	for i := uint64(0); i < 10; i++ {
		tr.Append(trace.Event{Cycle: i, Actor: 2, Victim: 5})
	}
	tr.Append(trace.Event{Cycle: 11, Actor: 0, Victim: 1})
	tr.Append(trace.Event{Cycle: 12, Actor: 3, Victim: 3})               // self: ignored
	tr.Append(trace.Event{Cycle: 13, Actor: 6, Victim: trace.NoContext}) // victimless: ignored
	if _, got := rawPairSeries(tr); got != [2]uint8{2, 5} {
		t.Errorf("dominant couple = %v", got)
	}
}

// TestRawPairSeriesMatchesReference: the one-pass raw-mode build
// returns the map references' series and couple on random trains that
// mix victimless events, self-pairs, NoContext actors, count ties and
// (in some trains) a context id of 15 or more, which takes the map
// fallback.
func TestRawPairSeriesMatchesReference(t *testing.T) {
	r := stats.NewRNG(21)
	ctx := func(contexts int) uint8 {
		switch r.Intn(12) {
		case 0:
			return trace.NoContext
		default:
			return uint8(r.Intn(contexts))
		}
	}
	for trial := 0; trial < 400; trial++ {
		contexts := 2 + r.Intn(13) // all ids below 15: the flat path
		if trial%5 == 4 {
			contexts = 15 + r.Intn(8) // ids up to 22 may take the fallback
		}
		tr := trace.NewTrain(0)
		n := r.Intn(200)
		if trial%7 == 0 {
			// Count tie: two couples with the same event total, the
			// larger couple first in the train.
			for i := 0; i < 6; i++ {
				tr.Append(trace.Event{Cycle: uint64(i), Actor: 9, Victim: 4})
				tr.Append(trace.Event{Cycle: uint64(i), Actor: 2, Victim: 7})
			}
			n = 0
		}
		for i := 0; i < n; i++ {
			a := ctx(contexts)
			v := ctx(contexts)
			if r.Intn(8) == 0 {
				v = a // self-pair
			}
			tr.Append(trace.Event{Cycle: uint64(i), Actor: a, Victim: v})
		}
		got, couple := rawPairSeries(tr)
		want := appearanceOrderSeriesRef(tr)
		if len(got) != len(want) {
			t.Fatalf("trial %d: series length %d, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: series[%d] = %v, reference %v", trial, i, got[i], want[i])
			}
		}
		if ref := dominantCoupleRef(tr); couple != ref {
			t.Fatalf("trial %d: couple %v, reference %v", trial, couple, ref)
		}
		if trial%7 == 0 && n == 0 && couple != [2]uint8{2, 7} {
			t.Fatalf("trial %d: tie went to %v, want the smaller couple {2 7}", trial, couple)
		}
		pool.PutFloat64s(got)
		pool.PutFloat64s(want)
	}
}

// sameAnalyses reports whether two window sweeps are bit-identical,
// correlogram and peak values compared by their IEEE bits.
func sameAnalyses(a, b []OscillationAnalysis) bool {
	if len(a) != len(b) {
		return false
	}
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		x, y := a[i], b[i]
		if x.Pair != y.Pair || x.FundamentalLag != y.FundamentalLag || x.Harmonics != y.Harmonics ||
			x.Events != y.Events || x.Detected != y.Detected || !bitsEq(x.PeakValue, y.PeakValue) ||
			len(x.Autocorrelogram) != len(y.Autocorrelogram) || len(x.Peaks) != len(y.Peaks) {
			return false
		}
		for p := range x.Autocorrelogram {
			if !bitsEq(x.Autocorrelogram[p], y.Autocorrelogram[p]) {
				return false
			}
		}
		for p := range x.Peaks {
			if x.Peaks[p].Lag != y.Peaks[p].Lag || !bitsEq(x.Peaks[p].Value, y.Peaks[p].Value) {
				return false
			}
		}
	}
	return true
}

// TestWindowSweepWorkspaceIndependent: a sweep borrowing a pooled
// workspace returns the same bits as one run on a caller-supplied
// workspace, whatever sizes that workspace served before.
func TestWindowSweepWorkspaceIndependent(t *testing.T) {
	tr := noisyChannelTrain(12, 512, 100, 0.1, 5)
	end := tr.Events()[tr.Len()-1].Cycle + 1
	for _, raw := range []bool{false, true} {
		cfg := DefaultOscillationConfig(8)
		cfg.RawPairSeries = raw
		ws := stats.NewWorkspace()
		for _, window := range []uint64{end, end / 3, end / 8, end / 2} {
			pooled := AnalyzeOscillationWindows(tr, 0, end, window, cfg)
			own := cfg
			own.Workspace = ws
			supplied := AnalyzeOscillationWindows(tr, 0, end, window, own)
			if len(pooled) == 0 {
				t.Fatalf("raw=%v window=%d: no windows analyzed", raw, window)
			}
			if !sameAnalyses(pooled, supplied) {
				t.Errorf("raw=%v window=%d: pooled and supplied workspaces disagree", raw, window)
			}
		}
	}
}
