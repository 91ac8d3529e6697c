package conflict

import (
	"fmt"

	"cchunter/internal/bloom"
)

// numGenerations is fixed at four by the paper's design: four
// generation bits per cache block and four Bloom filters.
const numGenerations = 4

// Generational is the paper's practical conflict-miss tracker
// (Figure 9). It approximates the ideal LRU stack with four block
// generations ordered by age:
//
//   - every resident block carries four generation bits recording the
//     generations in which it was accessed; the youngest bit is set on
//     every access;
//   - a new generation starts whenever the number of blocks touched in
//     the current generation reaches T = totalBlocks/4 (~25% of an
//     ideal LRU stack);
//   - on replacement, the evicted tag is inserted into the Bloom
//     filter of the latest generation in which the block was accessed
//     ("remember its premature removal");
//   - an incoming miss whose tag hits any live Bloom filter is a
//     conflict miss — the block was evicted before the cache cycled
//     through its full capacity;
//   - starting a fifth generation discards the oldest: its Bloom
//     filter and its metadata bit column are flash-cleared.
//
// As in the hardware, the generation bits belong to block frames, not
// to line addresses, so Observe needs a frame-consistent stream (see
// Observation). Ideal accepts any stream.
type Generational struct {
	totalBlocks int
	threshold   int
	bitsPerGen  int
	hashes      int

	filters [numGenerations]*bloom.Filter
	// probes is the scratch for the per-access Bloom probe positions.
	// All four filters share one geometry, so an incoming tag is
	// hashed once and the same positions are checked in each — the
	// software analogue of the hardware design's shared hash trees.
	probes []uint64

	// cols[i] is generation i's bit column over the tracked cache's
	// block frames: bit n is set when the block in frame n (set*Ways+
	// way, Observation.Node) was accessed in generation i. These are
	// the paper's per-block generation bits, stored as four flat
	// columns so a turnover flash-clears one column.
	cols [numGenerations][]uint64

	current  int // index of the youngest generation
	accessed int // blocks touched in the current generation

	conflicts   uint64
	generations uint64 // generation turnovers, for stats/tests
}

// GenerationalConfig sizes the practical tracker.
type GenerationalConfig struct {
	// TotalBlocks is the tracked cache's block count (N); every
	// Observation.Node must lie in [0, TotalBlocks).
	TotalBlocks int
	// BloomBitsPerGen is the size of each generation's Bloom filter in
	// bits. The paper provisions 4×N bits across 4 filters, i.e. N
	// bits each; 0 selects that default.
	BloomBitsPerGen int
	// Hashes is the number of Bloom hash functions (default 3, per
	// the paper's "three-hash bloom filter").
	Hashes int
}

// NewGenerational builds the practical tracker.
func NewGenerational(cfg GenerationalConfig) (*Generational, error) {
	if cfg.TotalBlocks <= 0 {
		return nil, fmt.Errorf("%w: TotalBlocks %d must be positive", ErrBadConfig, cfg.TotalBlocks)
	}
	if cfg.BloomBitsPerGen < 0 {
		return nil, fmt.Errorf("%w: BloomBitsPerGen %d negative", ErrBadConfig, cfg.BloomBitsPerGen)
	}
	if cfg.Hashes < 0 {
		return nil, fmt.Errorf("%w: Hashes %d negative", ErrBadConfig, cfg.Hashes)
	}
	if cfg.BloomBitsPerGen == 0 {
		cfg.BloomBitsPerGen = cfg.TotalBlocks
	}
	if cfg.Hashes == 0 {
		cfg.Hashes = 3
	}
	g := &Generational{
		totalBlocks: cfg.TotalBlocks,
		threshold:   cfg.TotalBlocks / numGenerations,
		bitsPerGen:  cfg.BloomBitsPerGen,
		hashes:      cfg.Hashes,
		probes:      make([]uint64, 0, cfg.Hashes),
	}
	if g.threshold < 1 {
		g.threshold = 1
	}
	for i := range g.cols {
		g.cols[i] = make([]uint64, (cfg.TotalBlocks+63)/64)
	}
	for i := range g.filters {
		// Parameters were validated above; a failure here is a bug.
		g.filters[i] = bloom.MustNew(cfg.BloomBitsPerGen, cfg.Hashes)
	}
	return g, nil
}

// MustNewGenerational is NewGenerational for configurations known to
// be valid; it panics on error.
func MustNewGenerational(cfg GenerationalConfig) *Generational {
	g, err := NewGenerational(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements Tracker.
func (g *Generational) Name() string { return "generation-bloom" }

// Reset implements Tracker.
func (g *Generational) Reset() {
	for i := range g.filters {
		g.filters[i].Clear()
		clear(g.cols[i])
	}
	g.current = 0
	g.accessed = 0
	g.conflicts = 0
	g.generations = 0
}

// Observe implements Tracker. o must be frame-consistent (see
// Observation) with o.Node in [0, TotalBlocks).
func (g *Generational) Observe(o Observation) bool {
	conflict := false
	if !o.Hit {
		// Check whether the incoming tag was recently prematurely
		// evicted: a hit in any generation's Bloom filter means the
		// block was accessed in that generation but replaced to make
		// room before the cache cycled through full capacity. The tag
		// is hashed once; the filters share one geometry.
		g.probes = g.filters[0].AppendProbes(g.probes, o.LineAddr)
		if bloom.AnyContainsAt(g.filters[:], g.probes) {
			conflict = true
			g.conflicts++
		}
	}
	word, bit := o.Node>>6, uint64(1)<<(o.Node&63)
	if o.Evicted {
		// The displaced block lived in the frame the new one now
		// occupies. Record its tag in the Bloom filter of the latest
		// generation in which it was accessed, then drop its bits.
		for age := 0; age < numGenerations; age++ {
			idx := (g.current - age + numGenerations) % numGenerations
			if g.cols[idx][word]&bit != 0 {
				g.filters[idx].Add(o.EvictedLine)
				break
			}
		}
		for i := range g.cols {
			g.cols[i][word] &^= bit
		}
	}
	// Mark the accessed block in the current generation (emulating
	// placement at the top of the LRU stack).
	if col := g.cols[g.current]; col[word]&bit == 0 {
		col[word] |= bit
		g.accessed++
		if g.accessed >= g.threshold {
			g.advanceGeneration()
		}
	}
	return conflict
}

// advanceGeneration discards the oldest generation and makes its slot
// the new youngest, flash-clearing its Bloom filter and its bit column.
// Blocks only ever touched in the discarded generation are left with
// no bits set: they fell off the bottom of the approximate LRU stack.
func (g *Generational) advanceGeneration() {
	oldest := (g.current + 1) % numGenerations
	g.filters[oldest].Clear()
	clear(g.cols[oldest])
	g.current = oldest
	g.accessed = 0
	g.generations++
}

// Conflicts returns the number of conflict misses detected.
func (g *Generational) Conflicts() uint64 { return g.conflicts }

// Generations returns how many generation turnovers have happened.
func (g *Generational) Generations() uint64 { return g.generations }

// HardwareCost reports the tracker's storage budget: Bloom filter bits
// plus per-block metadata bits (4 generation bits + 3 owner-context
// bits, per §V-A), used by the auditor's Table I model.
func (g *Generational) HardwareCost() (bloomBits, metadataBits int) {
	return numGenerations * g.bitsPerGen, g.totalBlocks * (numGenerations + 3)
}
