package tlb

import (
	"errors"
	"testing"

	"cchunter/internal/trace"
)

// small is a 2-set × 2-way TLB with distinct hit and walk latencies.
func small(l trace.Listener) *TLB {
	t, err := New(Config{Sets: 2, Ways: 2, HitCycles: 1, WalkCycles: 100}, l)
	if err != nil {
		panic(err)
	}
	return t
}

// page returns an address on the n-th page mapping to set.
func page(set, n int) uint64 {
	return uint64(n*2+set) << PageShift
}

func TestMissThenHitLatencies(t *testing.T) {
	tl := small(nil)
	if lat, hit := tl.Probe(0, 0, 0, page(0, 0)); hit || lat != 100 {
		t.Errorf("cold probe: latency %d hit %v, want a 100-cycle walk", lat, hit)
	}
	// Another address on the same page hits.
	if lat, hit := tl.Probe(0, 0, 1, page(0, 0)+123); !hit || lat != 1 {
		t.Errorf("same-page probe: latency %d hit %v, want a 1-cycle hit", lat, hit)
	}
	if tl.SetOf(page(1, 3)) != 1 || tl.SetOf(page(0, 3)) != 0 {
		t.Error("SetOf disagrees with the page-number set mapping")
	}
}

func TestFirstInvalidWayFillsBeforeEviction(t *testing.T) {
	rec := trace.NewRecorder(trace.KindTLBConflict)
	tl := small(rec)
	// Two different contexts fill both ways of set 0: the second fill
	// takes the invalid way and evicts nothing.
	tl.Probe(0, 0, 0, page(0, 0))
	tl.Probe(0, 0, 1, page(0, 1))
	if rec.Train().Len() != 0 {
		t.Fatalf("fills into invalid ways raised %d conflict events", rec.Train().Len())
	}
	for n := 0; n < 2; n++ {
		if _, hit := tl.Probe(0, 0, 0, page(0, n)); !hit {
			t.Errorf("page %d evicted while an invalid way was free", n)
		}
	}
}

func TestTrueLRUVictim(t *testing.T) {
	tl := small(nil)
	tl.Probe(0, 0, 0, page(0, 0))
	tl.Probe(0, 0, 0, page(0, 1))
	tl.Probe(0, 0, 0, page(0, 0)) // page 1 is now least recently used
	tl.Probe(0, 0, 0, page(0, 2)) // evicts page 1
	if _, hit := tl.Probe(0, 0, 0, page(0, 0)); !hit {
		t.Error("most recently used page 0 was evicted")
	}
	if _, hit := tl.Probe(0, 0, 0, page(0, 2)); !hit {
		t.Error("freshly filled page 2 missing")
	}
	// Re-probing page 1 misses; it evicts the LRU page, now 0.
	if _, hit := tl.Probe(0, 0, 0, page(0, 1)); hit {
		t.Error("LRU page 1 survived the fill of page 2")
	}
	if _, hit := tl.Probe(0, 0, 0, page(0, 2)); !hit {
		t.Error("page 2 was evicted instead of the LRU page 0")
	}
	// Set 1 is untouched by all of this.
	if _, hit := tl.Probe(0, 0, 0, page(1, 0)); hit {
		t.Error("cold page in set 1 hit")
	}
}

func TestConflictEventOnlyOnCrossContextEviction(t *testing.T) {
	rec := trace.NewRecorder(trace.KindTLBConflict)
	tl := small(rec)
	// Same-context churn in set 1: evictions, but no events.
	for n := 0; n < 5; n++ {
		tl.Probe(uint64(n), uint64(n), 2, page(1, n))
	}
	if rec.Train().Len() != 0 {
		t.Fatalf("same-context evictions raised %d events", rec.Train().Len())
	}
	// Context 5 evicts one of context 2's pages from set 1.
	tl.Probe(900, 777, 5, page(1, 9))
	ev := rec.Train().Events()
	if len(ev) != 1 {
		t.Fatalf("cross-context eviction raised %d events, want 1", len(ev))
	}
	want := trace.Event{Cycle: 777, Kind: trace.KindTLBConflict, Actor: 5, Victim: 2, Unit: 1}
	if ev[0] != want {
		t.Errorf("event %+v, want %+v", ev[0], want)
	}
	// A hit by another context is not an eviction.
	tl.Probe(901, 901, 2, page(1, 9))
	if rec.Train().Len() != 1 {
		t.Errorf("a cross-context hit raised an event")
	}
}

func TestStats(t *testing.T) {
	tl := small(nil)
	tl.Probe(0, 0, 0, page(0, 0)) // miss
	tl.Probe(0, 0, 0, page(0, 0)) // hit
	tl.Probe(0, 0, 0, page(0, 1)) // miss into the free way
	tl.Probe(0, 0, 1, page(0, 2)) // miss, cross-context eviction
	tl.Probe(0, 0, 1, page(0, 3)) // miss, evicts context 0's other page
	tl.Probe(0, 0, 1, page(0, 4)) // miss, same-context eviction
	want := Stats{Lookups: 6, Misses: 5, Conflicts: 2}
	if got := tl.Stats(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if tl.Config().Ways != 2 || tl.Config().Sets != 2 {
		t.Errorf("Config() = %+v", tl.Config())
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	for name, cfg := range map[string]Config{
		"sets not power of two": {Sets: 3, Ways: 2, HitCycles: 1, WalkCycles: 10},
		"zero ways":             {Sets: 2, Ways: 0, HitCycles: 1, WalkCycles: 10},
		"zero latency":          {Sets: 2, Ways: 2, HitCycles: 0, WalkCycles: 10},
	} {
		tl, err := New(cfg, nil)
		if err == nil {
			t.Errorf("%s: New accepted the configuration", name)
			continue
		}
		if tl != nil || !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: New = %v, %v; want nil and an error wrapping ErrBadConfig", name, tl, err)
		}
	}
}
