package auditor

import (
	"math"
	"reflect"
	"testing"

	"cchunter/internal/obs"
	"cchunter/internal/trace"
)

func busEvent(cycle uint64) trace.Event {
	return trace.Event{Cycle: cycle, Kind: trace.KindBusLock, Actor: 0, Victim: trace.NoContext}
}

func confEvent(cycle uint64, set uint32, actor, victim uint8) trace.Event {
	return trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: actor, Victim: victim, Unit: set}
}

func TestMonitorSlots(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if err := a.Monitor(trace.KindBusLock, 100); err != nil {
		t.Fatal(err)
	}
	if err := a.Monitor(trace.KindBusLock, 100); err == nil {
		t.Error("duplicate kind should fail")
	}
	if err := a.Monitor(trace.KindDivContention, 50); err != nil {
		t.Fatal(err)
	}
	// Both slots used; conflict monitoring is separate and still
	// available.
	if err := a.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	if a.DeltaT(trace.KindBusLock) != 100 || a.DeltaT(trace.KindDivContention) != 50 {
		t.Error("DeltaT wrong")
	}
	if a.DeltaT(trace.KindConflictMiss) != 0 {
		t.Error("conflict kind has no deltaT slot")
	}
}

func TestMonitorErrors(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if err := a.Monitor(trace.KindConflictMiss, 10); err == nil {
		t.Error("conflict kind must be rejected by Monitor")
	}
	if err := a.Monitor(trace.KindBusLock, 0); err == nil {
		t.Error("zero deltaT must be rejected")
	}
	unpriv := MustNew(Config{HistogramBins: 8, VectorBytes: 8, QuantumCycles: 100, Privileged: false})
	if err := unpriv.Monitor(trace.KindBusLock, 10); err != ErrNotPrivileged {
		t.Errorf("unprivileged Monitor error = %v", err)
	}
	if err := unpriv.MonitorConflicts(); err != ErrNotPrivileged {
		t.Errorf("unprivileged MonitorConflicts error = %v", err)
	}
}

func TestDensityHistogramAccumulation(t *testing.T) {
	a := MustNew(DefaultConfig(1000)) // quantum 1000, deltaT 100
	if err := a.Monitor(trace.KindBusLock, 100); err != nil {
		t.Fatal(err)
	}
	// Window [0,100): 3 events; [100,200): 1; [200,300): 0; then quiet.
	for _, c := range []uint64{10, 20, 30, 150} {
		a.OnEvent(busEvent(c))
	}
	a.Flush(1000) // close the quantum
	recs := a.Histograms(trace.KindBusLock)
	if len(recs) != 1 {
		t.Fatalf("quantum records = %d, want 1", len(recs))
	}
	h := recs[0].Hist
	if h.Bin(3) != 1 || h.Bin(1) != 1 {
		t.Errorf("histogram: %v", h.Bins())
	}
	if h.Bin(0) != 8 {
		t.Errorf("quiet windows in bin0 = %d, want 8", h.Bin(0))
	}
	if h.Total() != 10 {
		t.Errorf("windows per quantum = %d, want 10", h.Total())
	}
}

func TestQuantumRollover(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if err := a.Monitor(trace.KindBusLock, 100); err != nil {
		t.Fatal(err)
	}
	a.OnEvent(busEvent(50))   // quantum 0
	a.OnEvent(busEvent(1050)) // quantum 1
	a.Flush(3000)
	recs := a.Histograms(trace.KindBusLock)
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if recs[0].Quantum != 0 || recs[1].Quantum != 1 || recs[2].Quantum != 2 {
		t.Errorf("quantum indices: %v %v %v", recs[0].Quantum, recs[1].Quantum, recs[2].Quantum)
	}
	if recs[0].Hist.TotalFrom(1) != 1 || recs[1].Hist.TotalFrom(1) != 1 || recs[2].Hist.TotalFrom(1) != 0 {
		t.Error("per-quantum event placement wrong")
	}
}

func TestMergedHistogram(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if err := a.Monitor(trace.KindBusLock, 100); err != nil {
		t.Fatal(err)
	}
	a.OnEvent(busEvent(10))
	a.OnEvent(busEvent(1010))
	a.Flush(2000)
	m := a.MergedHistogram(trace.KindBusLock)
	if m.Bin(1) != 2 {
		t.Errorf("merged bin1 = %d, want 2", m.Bin(1))
	}
	if a.MergedHistogram(trace.KindDivContention) != nil {
		t.Error("unmonitored kind should give nil")
	}
}

func TestOscillatorDedupPerSetRun(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if err := a.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	// An 8-way fill of set 5 by context 0 evicting context 1's blocks:
	// one recorded entry.
	for i := uint64(0); i < 8; i++ {
		a.OnEvent(confEvent(100+i, 5, 0, 1))
	}
	// Then the reverse direction in the same set: a new entry.
	for i := uint64(0); i < 8; i++ {
		a.OnEvent(confEvent(200+i, 5, 1, 0))
	}
	// A different set: a new entry even with the same pair.
	a.OnEvent(confEvent(300, 6, 1, 0))
	a.Flush(1000)
	tr := a.ConflictTrain()
	if tr.Len() != 3 {
		t.Fatalf("train len = %d, want 3", tr.Len())
	}
	if tr.At(0).Actor != 0 || tr.At(1).Actor != 1 || tr.At(2).Unit != 6 {
		t.Errorf("train: %+v", tr.Events())
	}
}

func TestOscillatorVectorRegisterSwap(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.VectorBytes = 4
	a := MustNew(cfg)
	if err := a.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	// 10 distinct entries with capacity 4: registers swap, nothing is
	// lost.
	for i := 0; i < 10; i++ {
		a.OnEvent(confEvent(uint64(i), uint32(i), 0, 1))
	}
	a.Flush(1000)
	if a.ConflictTrain().Len() != 10 {
		t.Errorf("train len = %d, want 10", a.ConflictTrain().Len())
	}
	if a.DroppedConflicts() != 0 {
		t.Errorf("dropped = %d", a.DroppedConflicts())
	}
}

func TestConflictTrainNilWithoutMonitoring(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if a.ConflictTrain() != nil {
		t.Error("train should be nil before MonitorConflicts")
	}
	a.OnEvent(confEvent(1, 0, 0, 1)) // ignored, no crash
	if a.DroppedConflicts() != 0 {
		t.Error("dropped should be 0")
	}
}

func TestEventsForUnmonitoredKindIgnored(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if err := a.Monitor(trace.KindBusLock, 100); err != nil {
		t.Fatal(err)
	}
	a.OnEvent(trace.Event{Cycle: 5, Kind: trace.KindDivContention, Actor: 0, Victim: 1})
	a.Flush(1000)
	if a.MergedHistogram(trace.KindBusLock).TotalFrom(1) != 0 {
		t.Error("div event leaked into bus histogram")
	}
}

func TestTableICalibration(t *testing.T) {
	// The analytic model must reproduce Table I at the paper's sizing.
	m := EstimateCost(DefaultSizing())
	checks := []struct {
		name          string
		got           Cost
		area, pw, lat float64
	}{
		{"histogram", m.HistogramBuffers, 0.0028, 2.8, 0.17},
		{"registers", m.Registers, 0.0011, 0.8, 0.17},
		{"detector", m.ConflictMissDetector, 0.004, 5.4, 0.12},
	}
	for _, c := range checks {
		if math.Abs(c.got.AreaMM2-c.area)/c.area > 0.02 {
			t.Errorf("%s area = %v, want %v", c.name, c.got.AreaMM2, c.area)
		}
		if math.Abs(c.got.PowerMW-c.pw)/c.pw > 0.02 {
			t.Errorf("%s power = %v, want %v", c.name, c.got.PowerMW, c.pw)
		}
		if math.Abs(c.got.LatencyNS-c.lat)/c.lat > 0.05 {
			t.Errorf("%s latency = %v, want %v", c.name, c.got.LatencyNS, c.lat)
		}
	}
}

func TestCostScalesWithSize(t *testing.T) {
	small := EstimateCost(CostSizing{HistogramBins: 64, HistogramEntryBits: 16, VectorBytes: 64, CacheBlocks: 2048})
	big := EstimateCost(DefaultSizing())
	if small.HistogramBuffers.AreaMM2 >= big.HistogramBuffers.AreaMM2 {
		t.Error("smaller buffers should be smaller")
	}
	if small.ConflictMissDetector.PowerMW >= big.ConflictMissDetector.PowerMW {
		t.Error("smaller detector should burn less power")
	}
	if small.HistogramBuffers.LatencyNS >= big.HistogramBuffers.LatencyNS {
		t.Error("smaller structures should be faster")
	}
	zero := EstimateCost(CostSizing{})
	if zero.HistogramBuffers.AreaMM2 != 0 {
		t.Error("zero sizing should cost nothing for the buffers")
	}
}

func TestAccumulatorSaturates(t *testing.T) {
	a := MustNew(DefaultConfig(1_000_000))
	if err := a.Monitor(trace.KindBusLock, 1_000_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70000; i++ {
		a.OnEvent(busEvent(10))
	}
	a.Flush(1_000_000)
	// 70000 events saturate the 16-bit accumulator, then clamp into
	// the histogram's top bin; no panic, no wraparound to small bins.
	h := a.MergedHistogram(trace.KindBusLock)
	if h.Bin(h.NumBins()-1) != 1 {
		t.Errorf("saturated window not in top bin: %v", h.String())
	}
}

// batchEvents is a bus-lock stream that alternates dense quanta (50
// events per 50k-cycle window, clamped into the top histogram bin) with
// sparse ones (20 per window, events landing exactly on window
// boundaries), interleaved with runs of conflict misses whose pair
// direction alternates so the dedup comparator stays busy.
func batchEvents(quanta int, quantum uint64) []trace.Event {
	var out []trace.Event
	end := uint64(quanta) * quantum
	for c := uint64(5_000); c < end; {
		out = append(out, busEvent(c))
		if (c/2_500)%5 == 0 {
			dir := uint8((c / 12_500) % 2)
			for w := uint64(0); w < 3; w++ {
				out = append(out, confEvent(c+w, uint32(c%64), dir, 1-dir))
			}
		}
		if (c/quantum)%2 == 0 {
			c += 1_000
		} else {
			c += 2_500
		}
	}
	return out
}

// TestBatchDeliveryMatchesPerEvent: the batched OnEvents path and
// per-event OnEvent delivery leave the auditor in the same observable
// state — records, integrity counters, conflict train, and published
// metrics — at every batch size.
func TestBatchDeliveryMatchesPerEvent(t *testing.T) {
	const quantum = uint64(100_000)
	const quanta = 6
	events := batchEvents(quanta, quantum)
	end := uint64(quanta) * quantum
	build := func() (*Auditor, *obs.Registry) {
		a := MustNew(Config{HistogramBins: 32, VectorBytes: 16, QuantumCycles: quantum, Privileged: true})
		if err := a.Monitor(trace.KindBusLock, 50_000); err != nil {
			t.Fatal(err)
		}
		if err := a.MonitorConflicts(); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		a.Instrument(reg)
		return a, reg
	}
	ref, refReg := build()
	for _, e := range events {
		ref.OnEvent(e)
	}
	ref.Flush(end)
	if ref.Integrity(trace.KindBusLock).HistogramClamped == 0 {
		t.Fatal("fixture never clamps a histogram bin; the clamped path is untested")
	}
	if ref.ConflictIntegrity().Recorded == 0 || ref.ConflictTrain().Len() == 0 {
		t.Fatal("fixture records no conflicts")
	}
	for _, batch := range []int{1, 7, 64, len(events)} {
		a, reg := build()
		for i := 0; i < len(events); i += batch {
			j := i + batch
			if j > len(events) {
				j = len(events)
			}
			a.OnEvents(events[i:j])
		}
		a.Flush(end)
		if !reflect.DeepEqual(a.Histograms(trace.KindBusLock), ref.Histograms(trace.KindBusLock)) {
			t.Errorf("batch %d: per-quantum records differ", batch)
		}
		if got, want := a.Integrity(trace.KindBusLock), ref.Integrity(trace.KindBusLock); got != want {
			t.Errorf("batch %d: integrity %+v, want %+v", batch, got, want)
		}
		if got, want := a.ConflictIntegrity(), ref.ConflictIntegrity(); got != want {
			t.Errorf("batch %d: conflict integrity %+v, want %+v", batch, got, want)
		}
		if !reflect.DeepEqual(a.ConflictTrain().Events(), ref.ConflictTrain().Events()) {
			t.Errorf("batch %d: conflict trains differ", batch)
		}
		if got, want := reg.Snapshot(), refReg.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("batch %d: metrics %+v, want %+v", batch, got, want)
		}
	}
}

// TestDrainKeepsIntegrity: draining records hands them to the caller
// without losing the clamped-window tally, and TrimConflicts keeps
// trimmed entries in the recorded count.
func TestDrainKeepsIntegrity(t *testing.T) {
	const quantum = uint64(100_000)
	a := MustNew(Config{HistogramBins: 32, VectorBytes: 16, QuantumCycles: quantum, Privileged: true})
	if err := a.Monitor(trace.KindBusLock, 50_000); err != nil {
		t.Fatal(err)
	}
	if err := a.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	a.OnEvents(batchEvents(4, quantum))
	a.Flush(4 * quantum)
	before := a.Integrity(trace.KindBusLock)
	conflicts := a.ConflictIntegrity()

	drained := a.DrainHistograms(trace.KindBusLock, nil)
	if len(drained) != 4 {
		t.Fatalf("drained %d quantum records, want 4", len(drained))
	}
	if n := len(a.Histograms(trace.KindBusLock)); n != 0 {
		t.Errorf("%d records left after drain", n)
	}
	if got := a.Integrity(trace.KindBusLock); got != before {
		t.Errorf("integrity after drain %+v, want %+v", got, before)
	}
	if r := before.SaturationRate(); r <= 0 || r > 1 {
		t.Errorf("saturation rate %v outside (0, 1]", r)
	}

	a.ForceDrainConflicts()
	n := a.ConflictTrain().Len()
	if trimmed := a.TrimConflicts(2 * quantum); trimmed <= 0 || trimmed >= n {
		t.Errorf("trimmed %d of %d conflicts before quantum 2", trimmed, n)
	}
	if got := a.ConflictIntegrity(); got.Recorded != conflicts.Recorded {
		t.Errorf("recorded after trim = %d, want %d", got.Recorded, conflicts.Recorded)
	}
	if r := a.ConflictIntegrity().LossRate(); r < 0 || r > 1 {
		t.Errorf("loss rate %v outside [0, 1]", r)
	}
}
