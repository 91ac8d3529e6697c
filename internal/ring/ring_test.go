package ring

import (
	"testing"

	"cchunter/internal/trace"
)

// line returns a line address owned by slice s of a 4-stop ring.
func line(s int) uint64 { return uint64(8 + s) }

func TestShortestPathHopLatency(t *testing.T) {
	for _, tc := range []struct {
		core, slice int
		hops        uint64
	}{
		{0, 0, 0}, // local slice: no traversal
		{0, 1, 1}, // clockwise
		{0, 2, 2}, // tie: clockwise
		{0, 3, 1}, // counter-clockwise is shorter
		{3, 0, 1}, // clockwise across the wrap
		{1, 0, 1}, // counter-clockwise
		{2, 0, 2},
	} {
		r := New(Config{Stops: 4, HopCycles: 5}, nil)
		done, waited := r.Transit(100, 100, 0, tc.core, line(tc.slice))
		if want := 100 + 5*tc.hops; done != want || waited != 0 {
			t.Errorf("core %d → slice %d: done %d waited %d, want done %d waited 0",
				tc.core, tc.slice, done, waited, want)
		}
	}
	// A core index beyond the stops wraps onto stop core%Stops.
	r := New(Config{Stops: 4, HopCycles: 5}, nil)
	if done, _ := r.Transit(0, 0, 0, 5, line(1)); done != 0 {
		t.Errorf("core 5 sits on stop 1: transit to slice 1 took %d cycles", done)
	}
}

func TestSliceOf(t *testing.T) {
	four := New(Config{Stops: 4}, nil)
	three := New(Config{Stops: 3}, nil)
	for la := uint64(0); la < 24; la++ {
		if got := four.SliceOf(la); got != int(la%4) {
			t.Errorf("4 stops: line %d on slice %d, want %d", la, got, la%4)
		}
		if got := three.SliceOf(la); got != int(la%3) {
			t.Errorf("3 stops: line %d on slice %d, want %d", la, got, la%3)
		}
	}
	if four.Config().HopCycles != DefaultConfig().HopCycles {
		t.Errorf("zero HopCycles not defaulted: %+v", four.Config())
	}
}

func TestSegmentWaitContention(t *testing.T) {
	rec := trace.NewRecorder(trace.KindRingContention)
	r := New(Config{Stops: 4, HopCycles: 4}, rec)
	// Context 0 holds segment 0 (stop 0 → 1) for [0, 4).
	r.Transit(0, 0, 0, 0, line(1))
	// Context 0 again: it waits for its own traffic, silently.
	if done, waited := r.Transit(1, 1, 0, 0, line(1)); done != 8 || waited != 3 {
		t.Errorf("same-context wait: done %d waited %d, want 8 and 3", done, waited)
	}
	if rec.Train().Len() != 0 {
		t.Fatalf("a same-context wait raised %d events", rec.Train().Len())
	}
	// Context 1 queues behind context 0 on segment 0 ([4, 8) now).
	if done, waited := r.Transit(5, 2, 1, 0, line(1)); done != 12 || waited != 3 {
		t.Errorf("cross-context wait: done %d waited %d, want 12 and 3", done, waited)
	}
	ev := rec.Train().Events()
	want := trace.Event{Cycle: 2, Kind: trace.KindRingContention, Actor: 1, Victim: 0, Unit: 0}
	if len(ev) != 1 || ev[0] != want {
		t.Fatalf("events %+v, want [%+v]", ev, want)
	}
	if st := r.Stats(); st != (Stats{Transits: 3, Contention: 1}) {
		t.Errorf("stats %+v, want 3 transits and 1 contention", st)
	}
}

func TestOneEventPerTransit(t *testing.T) {
	rec := trace.NewRecorder(trace.KindRingContention)
	r := New(Config{Stops: 4, HopCycles: 4}, rec)
	r.Transit(0, 0, 5, 0, line(1)) // segment 0 busy [0, 4)
	r.Transit(6, 6, 5, 1, line(2)) // segment 1 busy [6, 10)
	// Context 6 crosses both segments and waits on each: 4 cycles on
	// segment 0, then 2 on segment 1, but raises one event.
	done, waited := r.Transit(0, 0, 6, 0, line(2))
	if done != 14 || waited != 6 {
		t.Errorf("two-segment wait: done %d waited %d, want 14 and 6", done, waited)
	}
	if n := rec.Train().Len(); n != 1 {
		t.Errorf("two waits in one transit raised %d events, want 1", n)
	}
	if st := r.Stats(); st.Contention != 1 || st.Transits != 3 {
		t.Errorf("stats %+v, want 3 transits and 1 contention", st)
	}
}

func TestCounterClockwiseSegmentUnit(t *testing.T) {
	rec := trace.NewRecorder(trace.KindRingContention)
	r := New(Config{Stops: 4, HopCycles: 4}, rec)
	// Stop 0 → slice 3 runs counter-clockwise on segment Stops+3.
	r.Transit(0, 0, 2, 0, line(3))
	r.Transit(1, 1, 3, 0, line(3))
	ev := rec.Train().Events()
	if len(ev) != 1 || ev[0].Unit != 7 || ev[0].Actor != 3 || ev[0].Victim != 2 {
		t.Errorf("events %+v, want one on segment 7 with actor 3 and victim 2", ev)
	}
}

func TestNewPanicsWithoutStops(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with zero stops did not panic")
		}
	}()
	New(Config{}, nil)
}
