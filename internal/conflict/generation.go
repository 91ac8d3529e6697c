package conflict

import (
	"fmt"
	"math/bits"

	"cchunter/internal/bloom"
)

// numGenerations is fixed at four by the paper's design: four
// generation bits per cache block and four Bloom filters, one nibble
// per frame and one bloom.Bank.
const numGenerations = bloom.BankFilters

// nibbleLow has the lowest bit of every nibble of a word set.
const nibbleLow = 0x1111111111111111

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
//     filter and its generation bit in every block are flash-cleared.
//
// As in the hardware, the generation bits belong to block frames, not
// to line addresses, so Observe needs a frame-consistent stream (see
// Observation). Ideal accepts any stream.
type Generational struct {
	totalBlocks int
	threshold   int
	bitsPerGen  int

	// bank holds the four generations' Bloom filters bit-sliced: bit g
	// of a position's nibble is generation g's filter bit. The filters
	// share one geometry, so an incoming tag is hashed once and one
	// word load per position serves all four — the software analogue
	// of the hardware design's shared hash trees.
	bank *bloom.Bank

	// gens holds the paper's per-block generation bits, one nibble per
	// tracked-cache frame (Observation.Node), 16 frames per word: bit g
	// of frame n's nibble is set when the block in frame n was accessed
	// in generation g. A turnover flash-clears bit g of every nibble.
	gens []uint64

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
		// Parameters were validated above; a failure here is a bug.
		bank: bloom.MustNewBank(cfg.BloomBitsPerGen, cfg.Hashes),
		gens: make([]uint64, (cfg.TotalBlocks+15)/16),
	}
	if g.threshold < 1 {
		g.threshold = 1
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
	g.bank.Reset()
	clear(g.gens)
	g.current = 0
	g.accessed = 0
	g.conflicts = 0
	g.generations = 0
}

// Observe implements Tracker. o must be frame-consistent (see
// Observation) with o.Node in [0, TotalBlocks).
func (g *Generational) Observe(o *Observation) bool {
	conflict := false
	// A hit in any live generation's Bloom filter means the block was
	// accessed in that generation but replaced to make room before the
	// cache cycled through full capacity. Discarded generations are
	// flash-cleared, so every set bit of the probe mask is live.
	if !o.Hit && g.bank.Probe(o.LineAddr) != 0 {
		conflict = true
		g.conflicts++
	}
	word, shift := o.Node>>4, uint(o.Node&15)*4
	if o.Evicted {
		// The displaced block lived in the frame the new one now
		// occupies. Record its tag in the Bloom filter of the latest
		// generation in which it was accessed, then drop its bits.
		if nib := g.gens[word] >> shift & 0xF; nib != 0 {
			// Rotate the nibble so generation current-a lands on bit
			// 3-a; the highest set bit is then the latest generation.
			byAge := (nib<<4 | nib) >> uint(g.current+1) & 0xF
			g.bank.Add((g.current+bits.Len64(byAge))%numGenerations, o.EvictedLine)
		}
		g.gens[word] &^= 0xF << shift
	}
	// Mark the accessed block in the current generation (emulating
	// placement at the top of the LRU stack).
	if bit := uint64(1) << (shift + uint(g.current)); g.gens[word]&bit == 0 {
		g.gens[word] |= bit
		g.accessed++
		if g.accessed >= g.threshold {
			g.advanceGeneration()
		}
	}
	return conflict
}

// advanceGeneration discards the oldest generation and makes its slot
// the new youngest, flash-clearing its Bloom filter and its bit in
// every frame's nibble. Blocks only ever touched in the discarded
// generation are left with no bits set: they fell off the bottom of
// the approximate LRU stack.
func (g *Generational) advanceGeneration() {
	oldest := (g.current + 1) % numGenerations
	g.bank.Clear(oldest)
	clearBit := uint64(nibbleLow) << uint(oldest)
	for i := range g.gens {
		g.gens[i] &^= clearBit
	}
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
