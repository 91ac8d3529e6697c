package conflict

import (
	"testing"

	"cchunter/internal/bloom"
	"cchunter/internal/cache"
	"cchunter/internal/stats"
)

// flat_test.go pins the flat, index-addressed trackers against
// map-based builds of the same algorithms, observation by
// observation. Ideal must be exact for arbitrary Observation
// sequences, so its streams mirror no cache geometry on purpose.
// Generational keys its generation bits by block frame and is exact
// only for frame-consistent streams (see Observation), so its streams
// come from a real cache.Cache, partitioned accesses included.

// randomStream builds an adversarial observation stream: a working
// set far larger than any tracker table, hits on never-seen lines,
// evictions of lines that may or may not be resident, and skewed
// reuse so move-to-front and backward-shift deletion paths all fire.
func randomStream(seed uint64, n, lines int) []Observation {
	r := stats.NewRNG(seed)
	out := make([]Observation, n)
	for i := range out {
		o := Observation{Result: cache.Result{
			LineAddr: uint64(r.Intn(lines)),
			Hit:      r.Intn(3) == 0,
		}}
		if !o.Hit && r.Intn(2) == 0 {
			o.Evicted = true
			o.EvictedLine = uint64(r.Intn(lines))
		}
		// Skew: revisit a small hot set often so stacks churn.
		if r.Intn(4) == 0 {
			o.LineAddr = uint64(r.Intn(8))
		}
		out[i] = o
	}
	return out
}

func TestIdealMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 64, 257} {
		flat := MustNewIdeal(capacity)
		ref := MustNewIdealReference(capacity)
		for i, o := range randomStream(uint64(capacity), 20000, 4*capacity+16) {
			got, want := flat.Observe(&o), ref.Observe(&o)
			if got != want {
				t.Fatalf("capacity %d: observation %d: flat=%v reference=%v", capacity, i, got, want)
			}
			if flat.StackSize() != ref.StackSize() {
				t.Fatalf("capacity %d: observation %d: stack size flat=%d reference=%d",
					capacity, i, flat.StackSize(), ref.StackSize())
			}
		}
		if flat.Conflicts() != ref.Conflicts() {
			t.Errorf("capacity %d: conflicts flat=%d reference=%d", capacity, flat.Conflicts(), ref.Conflicts())
		}
	}
}

func TestIdealMatchesReferenceAfterReset(t *testing.T) {
	flat, ref := MustNewIdeal(16), MustNewIdealReference(16)
	for _, o := range randomStream(1, 2000, 64) {
		flat.Observe(&o)
		ref.Observe(&o)
	}
	flat.Reset()
	ref.Reset()
	for i, o := range randomStream(2, 2000, 64) {
		if got, want := flat.Observe(&o), ref.Observe(&o); got != want {
			t.Fatalf("post-reset observation %d: flat=%v reference=%v", i, got, want)
		}
	}
}

// generationalOracle replays the practical tracker's algorithm over a
// line-keyed map residency table (the pre-frame representation) and
// four separate bloom.Filters, sharing nothing with Generational's
// frame nibbles and bit-sliced bank but the Bloom hash positions.
type generationalOracle struct {
	filters     [numGenerations]*bloom.Filter
	threshold   int
	resident    map[uint64]uint8
	current     int
	accessed    int
	conflicts   uint64
	generations uint64
}

func newGenerationalOracle(cfg GenerationalConfig) *generationalOracle {
	o := &generationalOracle{
		threshold: max(cfg.TotalBlocks/numGenerations, 1),
		resident:  map[uint64]uint8{},
	}
	bitsPerGen, hashes := cfg.BloomBitsPerGen, cfg.Hashes
	if bitsPerGen == 0 {
		bitsPerGen = cfg.TotalBlocks
	}
	if hashes == 0 {
		hashes = 3
	}
	for i := range o.filters {
		o.filters[i] = bloom.MustNew(bitsPerGen, hashes)
	}
	return o
}

func (o *generationalOracle) observe(ob *Observation) bool {
	conflict := false
	if !ob.Hit {
		for _, f := range o.filters {
			if f.Contains(ob.LineAddr) {
				conflict = true
				o.conflicts++
				break
			}
		}
	}
	if ob.Evicted {
		if mask, ok := o.resident[ob.EvictedLine]; ok {
			idx := o.latestGeneration(mask)
			o.filters[idx].Add(ob.EvictedLine)
			delete(o.resident, ob.EvictedLine)
		}
	}
	bit := uint8(1) << uint(o.current)
	mask := o.resident[ob.LineAddr]
	if mask&bit == 0 {
		o.resident[ob.LineAddr] = mask | bit
		o.accessed++
		if o.accessed >= o.threshold {
			oldest := (o.current + 1) % numGenerations
			o.filters[oldest].Clear()
			keep := ^(uint8(1) << uint(oldest))
			for line, m := range o.resident {
				if nm := m & keep; nm != m {
					if nm == 0 {
						delete(o.resident, line)
					} else {
						o.resident[line] = nm
					}
				}
			}
			o.current = oldest
			o.accessed = 0
			o.generations++
		}
	}
	return conflict
}

func (o *generationalOracle) latestGeneration(mask uint8) int {
	for age := 0; age < numGenerations; age++ {
		idx := (o.current - age + numGenerations) % numGenerations
		if mask&(1<<uint(idx)) != 0 {
			return idx
		}
	}
	return o.current
}

// oracleGeometries are the tracked caches of the differential tests:
// TotalBlocks 1, 3, 8, 64 and 512.
var oracleGeometries = []cache.Config{
	{SizeBytes: 1 * 64, LineBytes: 64, Ways: 1, HitLatency: 1},
	{SizeBytes: 3 * 64, LineBytes: 64, Ways: 3, HitLatency: 1},
	{SizeBytes: 8 * 64, LineBytes: 64, Ways: 2, HitLatency: 1},
	{SizeBytes: 64 * 64, LineBytes: 64, Ways: 8, HitLatency: 1},
	{SizeBytes: 512 * 64, LineBytes: 64, Ways: 8, HitLatency: 1},
}

// cacheAccess is one access of a differential stream: a line address,
// the accessing context, and the way range [lo, hi) a miss may
// allocate into.
type cacheAccess struct {
	line   uint64
	ctx    uint8
	lo, hi int
}

// oracleBloomSizes are the per-generation Bloom sizes of the
// differential tests: a roomy power of two, and a small size that
// reduces by modulo and fills up, so false positives are compared too.
var oracleBloomSizes = []int{4096, 192}

// checkGenerationalAgainstOracle drives accesses through a cache of
// geometry cfg and feeds every result to both the frame-keyed tracker
// and the line-keyed oracle, comparing the conflict bit, Conflicts()
// and Generations() after each observation.
func checkGenerationalAgainstOracle(t testing.TB, cfg cache.Config, bloomBits int, accesses []cacheAccess) {
	t.Helper()
	c := cache.MustNew(cfg)
	gcfg := GenerationalConfig{TotalBlocks: c.NumBlocks(), BloomBitsPerGen: bloomBits}
	flat := MustNewGenerational(gcfg)
	oracle := newGenerationalOracle(gcfg)
	for i, a := range accesses {
		ob := observationOf(c.AccessInWays(a.line*uint64(cfg.LineBytes), a.ctx, a.lo, a.hi), a.ctx)
		got, want := flat.Observe(ob), oracle.observe(ob)
		if got != want {
			t.Fatalf("blocks %d: observation %d (%+v): flat=%v oracle=%v", c.NumBlocks(), i, ob, got, want)
		}
		if flat.Conflicts() != oracle.conflicts || flat.Generations() != oracle.generations {
			t.Fatalf("blocks %d: observation %d: conflicts flat=%d oracle=%d, generations flat=%d oracle=%d",
				c.NumBlocks(), i, flat.Conflicts(), oracle.conflicts, flat.Generations(), oracle.generations)
		}
	}
}

// randomAccesses builds a cache-bound stream over a working set of
// `lines` lines with a hot subset, four contexts, and one access in
// four restricted to a random way partition.
func randomAccesses(seed uint64, n, lines, ways int) []cacheAccess {
	r := stats.NewRNG(seed)
	out := make([]cacheAccess, n)
	for i := range out {
		a := cacheAccess{line: uint64(r.Intn(lines)), ctx: uint8(r.Intn(4)), hi: ways}
		if r.Intn(4) == 0 {
			a.line = uint64(r.Intn(8))
		}
		if r.Intn(4) == 0 {
			a.lo = r.Intn(ways)
			a.hi = a.lo + 1 + r.Intn(ways-a.lo)
		}
		out[i] = a
	}
	return out
}

func TestGenerationalMatchesMapOracle(t *testing.T) {
	for _, cfg := range oracleGeometries {
		blocks := cfg.SizeBytes / cfg.LineBytes
		for _, bloomBits := range oracleBloomSizes {
			checkGenerationalAgainstOracle(t, cfg, bloomBits,
				randomAccesses(uint64(blocks)+7, 20000, 4*blocks+32, cfg.Ways))
		}
	}
}

// FuzzGenerationalMatchesLineOracle decodes arbitrary bytes into a
// cache geometry, a Bloom size and an access stream and checks the frame-keyed
// tracker against the line-keyed oracle on it.
func FuzzGenerationalMatchesLineOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{2, 0, 0, 0, 4, 0, 0, 8, 0, 0, 4, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 10, 1, 1, 74, 5, 2, 138, 9, 3, 10, 13, 0, 10, 1, 1})
	f.Add([]byte{4, 255, 3, 17, 0, 0, 0, 128, 2, 33, 255, 3, 17})
	f.Add([]byte{8, 10, 1, 1, 74, 5, 2, 138, 9, 3, 10, 13, 0, 10, 1, 1, 74, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := oracleGeometries[int(data[0])%len(oracleGeometries)]
		bloomBits := oracleBloomSizes[int(data[0])/len(oracleGeometries)%len(oracleBloomSizes)]
		var accesses []cacheAccess
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			// Ten line bits, two context bits, and a way partition in
			// one access of four.
			a := cacheAccess{line: uint64(b[0]) | uint64(b[1]&3)<<8, ctx: b[1] >> 2 & 3, hi: cfg.Ways}
			if b[2]&3 == 0 {
				a.lo = int(b[2]>>2) % cfg.Ways
				a.hi = a.lo + 1 + int(b[2]>>5)%(cfg.Ways-a.lo)
			}
			accesses = append(accesses, a)
		}
		checkGenerationalAgainstOracle(t, cfg, bloomBits, accesses)
	})
}

func TestIdealObserveDoesNotAllocate(t *testing.T) {
	tr := MustNewIdeal(64)
	stream := randomStream(3, 1024, 256)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Observe(&stream[i%len(stream)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Ideal.Observe allocates %.1f objects per call, want 0", allocs)
	}
}

func TestGenerationalObserveDoesNotAllocate(t *testing.T) {
	c := cache.MustNew(cache.Config{SizeBytes: 64 * 64, LineBytes: 64, Ways: 8, HitLatency: 1})
	g := MustNewGenerational(GenerationalConfig{TotalBlocks: c.NumBlocks()})
	stream := make([]Observation, 1024)
	for i, a := range randomAccesses(4, len(stream), 256, c.Ways()) {
		stream[i] = *observationOf(c.AccessInWays(a.line<<6, a.ctx, a.lo, a.hi), a.ctx)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		g.Observe(&stream[i%len(stream)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Generational.Observe allocates %.1f objects per call, want 0", allocs)
	}
}
