package auditor

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"cchunter/internal/obs"
	"cchunter/internal/trace"
)

// advanceRef is the one-window-at-a-time build of slot.advance: close
// every elapsed Δt window in turn. It is the oracle the empty-window
// skip is checked against.
func (s *slot) advanceRef(cycle uint64) {
	for cycle >= s.windowStart+s.deltaT {
		s.closeWindow()
	}
}

// refOnEvent delivers one event the way OnEvent does, but advances the
// counting slots through advanceRef.
func refOnEvent(a *Auditor, e trace.Event) {
	a.mEvents.Inc()
	for _, s := range a.slots {
		if s.kind != e.Kind {
			continue
		}
		s.advanceRef(e.Cycle)
		if s.accum < ^uint16(0) {
			s.accum++
		} else {
			s.satThisWin = true
		}
	}
}

// refFlush is Flush with the counting slots advanced through
// advanceRef.
func refFlush(a *Auditor, cycle uint64) {
	for _, s := range a.slots {
		s.advanceRef(cycle)
		s.flushMetrics()
	}
}

// sparseEvents draws n bus-lock and divider events whose gaps span
// from zero to a few hundred Δt windows, so runs of empty windows land
// both inside one quantum and across quantum rolls, while the oracle's
// per-window cost stays bounded. An occasional event steps backwards,
// as a reordered sensor path would deliver it.
func sparseEvents(seed uint64, n int, deltaT uint64) []trace.Event {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	out := make([]trace.Event, 0, n)
	cycle := uint64(0)
	for i := 0; i < n; i++ {
		gap := r.Uint64N(deltaT<<r.IntN(9) + 1)
		if r.IntN(16) == 0 && cycle > gap {
			cycle -= gap
		} else {
			cycle += gap
		}
		kind := trace.KindBusLock
		if r.IntN(3) == 0 {
			kind = trace.KindDivContention
		}
		out = append(out, trace.Event{Cycle: cycle, Kind: kind, Actor: 0, Victim: trace.NoContext})
	}
	return out
}

// checkAdvanceMatchesRef feeds the same events to an auditor that skips
// empty windows and to one that closes them one at a time, and requires
// identical records, integrity counters and metrics. Odd-numbered cases
// deliver through the batched OnEvents path.
func checkAdvanceMatchesRef(t *testing.T, seed uint64, n int, deltaT, quantum uint64) {
	t.Helper()
	build := func() (*Auditor, *obs.Registry) {
		a := MustNew(Config{HistogramBins: 8, VectorBytes: 16, QuantumCycles: quantum, Privileged: true})
		if err := a.Monitor(trace.KindBusLock, deltaT); err != nil {
			t.Fatal(err)
		}
		if err := a.Monitor(trace.KindDivContention, 3*deltaT+1); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		a.Instrument(reg)
		return a, reg
	}
	events := sparseEvents(seed, n, deltaT)
	end := uint64(0)
	if len(events) > 0 {
		end = events[len(events)-1].Cycle + quantum + deltaT
	}
	got, gotReg := build()
	if seed%2 == 1 {
		got.OnEvents(events)
	} else {
		for _, e := range events {
			got.OnEvent(e)
		}
	}
	got.Flush(end)
	want, wantReg := build()
	for _, e := range events {
		refOnEvent(want, e)
	}
	refFlush(want, end)
	for _, kind := range []trace.Kind{trace.KindBusLock, trace.KindDivContention} {
		if !reflect.DeepEqual(got.Histograms(kind), want.Histograms(kind)) {
			t.Fatalf("seed=%d Δt=%d quantum=%d %v: per-quantum records differ", seed, deltaT, quantum, kind)
		}
		if !reflect.DeepEqual(got.MergedHistogram(kind), want.MergedHistogram(kind)) {
			t.Fatalf("seed=%d Δt=%d quantum=%d %v: merged histograms differ", seed, deltaT, quantum, kind)
		}
		if g, w := got.Integrity(kind), want.Integrity(kind); g != w {
			t.Fatalf("seed=%d Δt=%d quantum=%d %v: integrity %+v, want %+v", seed, deltaT, quantum, kind, g, w)
		}
	}
	if g, w := gotReg.Snapshot(), wantReg.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("seed=%d Δt=%d quantum=%d: metrics %+v, want %+v", seed, deltaT, quantum, g, w)
	}
}

// TestAdvanceSkipMatchesOneWindowAtATime: crediting runs of empty Δt
// windows in one step is bit-identical to closing them one by one,
// with Δt well below, equal to, and above the quantum length.
func TestAdvanceSkipMatchesOneWindowAtATime(t *testing.T) {
	for _, c := range []struct{ deltaT, quantum uint64 }{
		{1, 1}, {1, 7}, {3, 100}, {500, 100_000}, {1000, 1000},
		{4096, 10_000}, {25_000, 10_000}, {1 << 20, 1 << 16},
	} {
		for seed := uint64(0); seed < 4; seed++ {
			checkAdvanceMatchesRef(t, seed, 400, c.deltaT, c.quantum)
		}
	}
}

// FuzzAdvanceSkipMatchesRef drives the differential check over random
// sparse event cycles, Δt values and quantum lengths.
func FuzzAdvanceSkipMatchesRef(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint32(500), uint32(100_000))
	f.Add(uint64(2), uint16(50), uint32(7), uint32(5))
	f.Add(uint64(3), uint16(300), uint32(1<<20), uint32(1<<12))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, deltaT, quantum uint32) {
		if deltaT == 0 || quantum == 0 {
			t.Skip()
		}
		checkAdvanceMatchesRef(t, seed, int(n%512), uint64(deltaT), uint64(quantum))
	})
}
