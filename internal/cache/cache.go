// Package cache implements the set-associative cache models used by
// the simulator: private L1s and the per-core L2 shared between
// hyperthreads that the paper's third covert channel exploits (§IV-C,
// after Xu et al.). Each cache block tracks its owner hardware context,
// which is what lets the conflict-miss tracker label replacements with
// (replacer → victim) pairs.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrBadConfig is wrapped by every configuration validation error in
// this package.
var ErrBadConfig = errors.New("cache: bad configuration")

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the block size; must be a power of two.
	LineBytes int
	// Ways is the associativity.
	Ways int
	// HitLatency is the access latency in cycles when the block is
	// resident at this level.
	HitLatency uint64
}

// DefaultL1 models the paper's private 32 KB L1 (8-way, 64 B lines).
func DefaultL1() Config {
	return Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitLatency: 4}
}

// DefaultL2 models the paper's 256 KB L2 (8-way, 64 B lines, 512
// sets), shared between the two hyperthreads of a core as on Nehalem.
func DefaultL2() Config {
	return Config{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8, HitLatency: 12}
}

// Valid blocks store tag and owner packed into one word:
//
//	bits 63..9  line address
//	bit      8  valid (the tag key lineAddr<<1|1 keeps it adjacent)
//	bits  7..0  owning hardware context
//
// An invalid way (word 0) can never match a lookup — the key is odd —
// so the way scan is a shift and a compare per way over one flat
// array, and a hit updates tag and owner with a single store. Line
// addresses are physical addresses shifted right by the line size,
// far below 2^55, so the packing never loses a bit.
const invalidTag = 0

func tagKey(lineAddr uint64) uint64 { return lineAddr<<1 | 1 }

func encodeTag(lineAddr uint64, ctx uint8) uint64 { return tagKey(lineAddr)<<8 | uint64(ctx) }

func tagOf(enc uint64) uint64 { return enc >> 8 }

func decodeTag(enc uint64) uint64 { return enc >> 9 }

func ownerOf(enc uint64) uint8 { return uint8(enc) }

// maxWays is the largest associativity New accepts: a set's recency
// order packs one 4-bit way index per position into one word.
const maxWays = 16

// Order-word nibble masks: the low and the high bit of every nibble.
const (
	nibbleLow  = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

// Cache is a single set-associative cache with true-LRU replacement.
// It is not safe for concurrent use; the simulation engine serializes
// all accesses in global time order.
//
// Block metadata lives in one flat array indexed by node =
// set*Ways+way: tags holds each way's packed tag+owner word (one
// cache line of words per 8-way set, so the hit scan touches a single
// array). Recency is one order word per set: nibble i holds the way at
// recency position i, position 0 the most recently used and position
// Ways-1 the least. A touch finds the way's nibble with a SWAR
// zero-nibble test and rotates it to position 0; the eviction victim
// is the first in-partition nibble counting down from position
// Ways-1. Nibbles above Ways-1 hold 0xF, which no way of a cache with
// fewer than 16 ways matches, and never move.
type Cache struct {
	cfg       Config
	nsets     int
	lineShift uint
	setMask   uint64
	lruShift  uint     // 4*(Ways-1): the bit offset of position Ways-1
	tags      []uint64 // packed tag+owner words; invalidTag = empty way
	order     []uint64 // per-set recency order words

	hits, misses, evictions uint64
}

// New builds a cache from cfg, rejecting inconsistent geometries with
// an error wrapping ErrBadConfig. Cache configurations reach here from
// user-settable machine descriptions, so a bad one is input, not a
// programming error.
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("%w: line size %d not a power of two", ErrBadConfig, cfg.LineBytes)
	}
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("%w: size %d and ways %d must be positive", ErrBadConfig, cfg.SizeBytes, cfg.Ways)
	}
	if cfg.Ways > maxWays {
		return nil, fmt.Errorf("%w: %d ways exceeds the maximum of %d", ErrBadConfig, cfg.Ways, maxWays)
	}
	blocks := cfg.SizeBytes / cfg.LineBytes
	if blocks%cfg.Ways != 0 {
		return nil, fmt.Errorf("%w: capacity %dB not divisible into %d ways of %dB lines",
			ErrBadConfig, cfg.SizeBytes, cfg.Ways, cfg.LineBytes)
	}
	nsets := blocks / cfg.Ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("%w: %d sets is not a power of two", ErrBadConfig, nsets)
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	// Initial order is way index order, way 0 most recent; it only
	// matters once all in-partition ways are valid, by which time every
	// way has been touched by its install.
	initial := uint64(0)
	for i := maxWays - 1; i >= 0; i-- {
		w := uint64(0xF)
		if i < cfg.Ways {
			w = uint64(i)
		}
		initial = initial<<4 | w
	}
	c := &Cache{
		cfg:       cfg,
		nsets:     nsets,
		lineShift: shift,
		setMask:   uint64(nsets - 1),
		lruShift:  uint(4 * (cfg.Ways - 1)),
		tags:      make([]uint64, blocks),
		order:     make([]uint64, nsets),
	}
	for s := range c.order {
		c.order[s] = initial
	}
	return c, nil
}

// touch moves way w of set s to recency position 0; the ways more
// recent than w each move back one position. Every way appears in the
// order word exactly once, so the lowest zero nibble of
// order^(w*nibbleLow) is w's position: the SWAR test's borrow can only
// mark nibbles above a true zero.
func (c *Cache) touch(set uint64, w int) {
	o := c.order[set]
	if o&0xF == uint64(w) {
		return
	}
	x := o ^ uint64(w)*nibbleLow
	p := uint(bits.TrailingZeros64((x-nibbleLow)&^x&nibbleHigh)) &^ 3
	below := uint64(1)<<p - 1            // positions more recent than w
	above := o &^ (uint64(1)<<(p+4) - 1) // positions less recent; 1<<64 is 0
	c.order[set] = above | (o&below)<<4 | uint64(w)
}

// lruWay returns the least recently used way of set s within [lo, hi):
// the first in-range nibble counting down from position Ways-1.
func (c *Cache) lruWay(set uint64, lo, hi int) int {
	o := c.order[set]
	for sh := c.lruShift; ; sh -= 4 {
		if w := int(o>>sh) & 0xF; w >= lo && w < hi {
			return w
		}
	}
}

// MustNew is New for geometries known to be valid (tests, hardcoded
// defaults); it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Result describes the effect of one access.
type Result struct {
	// Hit reports whether the block was resident.
	Hit bool
	// Set is the set index the address maps to.
	Set uint32
	// LineAddr is the full line address (addr >> log2(LineBytes)).
	LineAddr uint64
	// Node is the block frame (set*Ways+way) that holds the line after
	// the access: the way that hit, or the way the miss installed into.
	// On an eviction it is the displaced block's frame.
	Node int32
	// Evicted reports whether installing the block displaced a valid
	// block.
	Evicted bool
	// EvictedLine is the displaced block's line address.
	EvictedLine uint64
	// EvictedOwner is the hardware context that owned the displaced
	// block.
	EvictedOwner uint8
}

// Access looks up addr for hardware context ctx, installing the block
// (and evicting the LRU victim) on a miss. The owner of the block is
// updated to ctx on every access, matching the paper's "current owner
// context in the cache block metadata".
func (c *Cache) Access(addr uint64, ctx uint8) Result {
	var r Result
	c.AccessInto(&r, addr, ctx, 0, c.cfg.Ways)
	return r
}

// AccessHit is Access for callers that only consume the hit/miss bit —
// the private-L1 step of every load, where eviction details are
// irrelevant (inclusive-hierarchy invalidations flow from the L2, not
// from L1 replacements). Cache state, LRU order, and counters advance
// exactly as Access would; only the Result construction is skipped.
func (c *Cache) AccessHit(addr uint64, ctx uint8) bool {
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setMask
	setBase := int(set) * c.cfg.Ways
	ways := c.tags[setBase : setBase+c.cfg.Ways]
	key := tagKey(lineAddr)
	enc := key<<8 | uint64(ctx)
	// One pass finds both the hit way and the first invalid way: L1
	// working sets of the probing channels are built to always miss, so
	// the miss path shouldn't rescan the tags it just read.
	victim := -1
	for i := range ways {
		w := ways[i]
		if tagOf(w) == key {
			ways[i] = enc
			c.touch(set, i)
			c.hits++
			return true
		}
		if w == invalidTag && victim < 0 {
			victim = i
		}
	}
	c.misses++
	if victim < 0 {
		// Unpartitioned access: the least recently used way is the
		// victim, the same choice AccessInto makes with a full range.
		victim = int(c.order[set]>>c.lruShift) & 0xF
		c.evictions++
	}
	ways[victim] = enc
	c.touch(set, victim)
	return false
}

// AccessInWays is Access with allocation restricted to ways [lo, hi) —
// the hook used by way-partitioning mitigation (Wang & Lee's
// Partition-Locking idea). Hits are honored in any way (data is data),
// but on a miss the victim is chosen only inside the context's
// partition, so one partition can never evict another's blocks.
func (c *Cache) AccessInWays(addr uint64, ctx uint8, lo, hi int) Result {
	var r Result
	c.AccessInto(&r, addr, ctx, lo, hi)
	return r
}

// AccessInto is AccessInWays writing the outcome into *r, every field
// of which it overwrites. The simulator's L2 step fills one Result it
// owns and hands it to the conflict tracker by pointer, so the
// per-access path copies no Result.
func (c *Cache) AccessInto(r *Result, addr uint64, ctx uint8, lo, hi int) {
	if lo < 0 || hi > c.cfg.Ways || lo >= hi {
		panic(fmt.Sprintf("cache: bad way range [%d, %d) of %d", lo, hi, c.cfg.Ways))
	}
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setMask
	setBase := int(set) * c.cfg.Ways
	ways := c.tags[setBase : setBase+c.cfg.Ways]
	key := tagKey(lineAddr)
	enc := key<<8 | uint64(ctx)
	// One pass finds the hit way and the first invalid way in range.
	victim := -1
	for i := range ways {
		w := ways[i]
		if tagOf(w) == key {
			ways[i] = enc
			c.touch(set, i)
			c.hits++
			*r = Result{Hit: true, Set: uint32(set), LineAddr: lineAddr, Node: int32(setBase + i)}
			return
		}
		if w == invalidTag && victim < 0 && uint(i-lo) < uint(hi-lo) {
			victim = i
		}
	}
	c.misses++
	// Miss: an invalid way in range, else the LRU way in range.
	*r = Result{Set: uint32(set), LineAddr: lineAddr}
	if victim < 0 {
		victim = c.lruWay(set, lo, hi)
		r.Evicted = true
		r.EvictedLine = decodeTag(ways[victim])
		r.EvictedOwner = ownerOf(ways[victim])
		c.evictions++
	}
	ways[victim] = enc
	c.touch(set, victim)
	r.Node = int32(setBase + victim)
}

// InvalidateLine removes the block with the given line address (the
// Result.LineAddr / EvictedLine coordinate space) and reports whether
// it was resident. The simulator uses it for inclusive-hierarchy
// back-invalidation: when the shared L2 evicts a block, every L1 copy
// dies with it, as on real inclusive last-level caches — without this,
// stale private-cache copies would hide exactly the misses the covert
// channel and its detector both live on.
func (c *Cache) InvalidateLine(lineAddr uint64) bool {
	setBase := int(lineAddr&c.setMask) * c.cfg.Ways
	ways := c.tags[setBase : setBase+c.cfg.Ways]
	key := tagKey(lineAddr)
	for i, w := range ways {
		if tagOf(w) == key {
			ways[i] = invalidTag
			return true
		}
	}
	return false
}

// Contains reports whether addr is resident, without touching LRU
// state. Intended for tests and assertions.
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.Frame(addr)
	return ok
}

// Frame returns the block frame (set*Ways+way, the Result.Node
// coordinate space) holding addr's line and whether it is resident.
// Intended for tests and assertions.
func (c *Cache) Frame(addr uint64) (int32, bool) {
	lineAddr := addr >> c.lineShift
	setBase := int(lineAddr&c.setMask) * c.cfg.Ways
	key := tagKey(lineAddr)
	for i := 0; i < c.cfg.Ways; i++ {
		if tagOf(c.tags[setBase+i]) == key {
			return int32(setBase + i), true
		}
	}
	return 0, false
}

// Owner returns the owning context of addr's block and whether it is
// resident.
func (c *Cache) Owner(addr uint64) (uint8, bool) {
	lineAddr := addr >> c.lineShift
	setBase := int(lineAddr&c.setMask) * c.cfg.Ways
	key := tagKey(lineAddr)
	for i := 0; i < c.cfg.Ways; i++ {
		if tagOf(c.tags[setBase+i]) == key {
			return ownerOf(c.tags[setBase+i]), true
		}
	}
	return 0, false
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.nsets }

// NumBlocks returns the total number of blocks.
func (c *Cache) NumBlocks() int { return c.nsets * c.cfg.Ways }

// LineBytes returns the block size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() uint64 { return c.cfg.HitLatency }

// SetOfAddr returns the set index addr maps to.
func (c *Cache) SetOfAddr(addr uint64) uint32 {
	return uint32((addr >> c.lineShift) & c.setMask)
}

// AddrForSet builds an address that maps to the given set, with `way`
// selecting distinct conflicting line addresses within that set and
// base providing an address-space offset (e.g. a per-process tag).
// It is the inverse of SetOfAddr used by channel and workload code to
// construct eviction sets.
func (c *Cache) AddrForSet(set uint32, way int, base uint64) uint64 {
	if int(set) >= c.nsets {
		panic(fmt.Sprintf("cache: set %d out of range (%d sets)", set, c.nsets))
	}
	// Line address layout: [ base | way | set ]: the way bits sit just
	// above the set bits, so different ways collide in the same set
	// while different bases never alias.
	la := (base<<24|uint64(way))*uint64(c.nsets) + uint64(set)
	return la << c.lineShift
}

// Stats reports cumulative cache activity.
type Stats struct {
	Hits, Misses, Evictions uint64
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
