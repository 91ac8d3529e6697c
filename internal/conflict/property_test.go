package conflict

import (
	"testing"
	"testing/quick"

	"cchunter/internal/cache"
	"cchunter/internal/stats"
)

// TestFirstTouchNeverConflicts: no tracker may flag a line's very
// first access as a conflict miss — nothing was prematurely evicted.
// The 500 lines fit the 64-set × 8-way cache, so no Bloom filter ever
// holds a tag and no false positive can stand in for a conflict.
func TestFirstTouchNeverConflicts(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		c := cache.MustNew(cache.Config{SizeBytes: 512 * 64, LineBytes: 64, Ways: 8, HitLatency: 1})
		ideal := MustNewIdeal(64)
		gen := MustNewGenerational(GenerationalConfig{TotalBlocks: c.NumBlocks()})
		seen := map[uint64]bool{}
		for i := 0; i < 200; i++ {
			line := uint64(r.Intn(500))
			first := !seen[line]
			seen[line] = true
			ctx := uint8(r.Intn(4))
			o := observationOf(c.Access(line<<6, ctx), ctx)
			ci := ideal.Observe(o)
			cg := gen.Observe(o)
			if first && (ci || cg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHitsNeverConflict: a cache hit is never a conflict miss, in
// either tracker, for arbitrary interleavings. The 32 lines exactly
// fill the cache, so after the install pass every access hits.
func TestHitsNeverConflict(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		c := cache.MustNew(cache.Config{SizeBytes: 32 * 64, LineBytes: 64, Ways: 8, HitLatency: 1})
		trackers := []Tracker{
			MustNewIdeal(32),
			MustNewGenerational(GenerationalConfig{TotalBlocks: 32}),
		}
		for i := 0; i < 32+300; i++ {
			line := uint64(i)
			if i >= 32 {
				line = uint64(r.Intn(32))
			}
			ctx := uint8(r.Intn(4))
			res := c.Access(line<<6, ctx)
			if i >= 32 && !res.Hit {
				return false
			}
			o := observationOf(res, ctx)
			for _, tr := range trackers {
				if tr.Observe(o) && res.Hit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIdealAgreesWithDefinition: replay random traffic through a real
// cache and verify the ideal tracker's verdicts against a brute-force
// reuse-distance computation (a miss is a conflict iff fewer than
// `capacity` distinct lines were touched since the last access).
func TestIdealAgreesWithDefinition(t *testing.T) {
	c := cache.MustNew(cache.Config{SizeBytes: 2048, LineBytes: 64, Ways: 2, HitLatency: 1})
	capacity := c.NumBlocks() // 32
	tr := MustNewIdeal(capacity)
	r := stats.NewRNG(77)
	var history []uint64
	for i := 0; i < 3000; i++ {
		addr := uint64(r.Intn(128)) << 6
		res := c.Access(addr, 0)
		got := tr.Observe(obsOf(cache.Result{
			LineAddr: res.LineAddr, Set: res.Set, Hit: res.Hit,
			Evicted: res.Evicted, EvictedLine: res.EvictedLine,
		}))
		// Brute force: reuse distance in distinct lines.
		want := false
		if !res.Hit {
			distinct := map[uint64]bool{}
			for j := len(history) - 1; j >= 0; j-- {
				if history[j] == res.LineAddr {
					want = len(distinct) < capacity
					break
				}
				distinct[history[j]] = true
			}
		}
		if got != want {
			t.Fatalf("access %d line %x: ideal=%v brute-force=%v", i, res.LineAddr, got, want)
		}
		history = append(history, res.LineAddr)
	}
}

// TestGenerationalNeverFlagsBeyondHorizon: a line untouched for more
// than 4 full generations (≥ N distinct touches) must not be flagged —
// its eviction is no longer premature.
func TestGenerationalNeverFlagsBeyondHorizon(t *testing.T) {
	g := MustNewGenerational(GenerationalConfig{TotalBlocks: 16}) // threshold 4
	g.Observe(obsOf(cache.Result{LineAddr: 9999, Node: 0, Hit: false}))
	g.Observe(obsOf(cache.Result{LineAddr: 9998, Node: 0, Hit: false, Evicted: true, EvictedLine: 9999}))
	// 5 generations' worth of distinct touches in the other frames.
	held := roundRobin(g, 100, 5*16, 1, 16)
	if g.Observe(obsOf(cache.Result{LineAddr: 9999, Node: 1, Hit: false, Evicted: true, EvictedLine: held[1]})) {
		t.Error("eviction survived past the tracker's horizon")
	}
}
