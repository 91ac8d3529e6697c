package cache

import (
	"testing"

	"cchunter/internal/stats"
)

// listCache is the oracle for Cache's recency order: the same
// set-associative true-LRU cache with plain per-way fields and
// recency kept as an intrusive doubly-linked list per set, threaded
// through flat index arrays. A touch relinks the way at the head; a
// miss first rescans the partition for an invalid way and otherwise
// walks the list from the tail to the first in-partition way. It
// shares nothing with Cache but the frame numbering set*Ways+way.
type listCache struct {
	ways, sets int
	lineShift  uint
	line       []uint64
	owner      []uint8
	valid      []bool

	// prev/next link frames of one set; -1 terminates. head[s] is set
	// s's most recently used frame, tail[s] its least recently used.
	prev, next []int32
	head, tail []int32
}

func newListCache(cfg Config) *listCache {
	blocks := cfg.SizeBytes / cfg.LineBytes
	l := &listCache{
		ways:  cfg.Ways,
		sets:  blocks / cfg.Ways,
		line:  make([]uint64, blocks),
		owner: make([]uint8, blocks),
		valid: make([]bool, blocks),
		prev:  make([]int32, blocks),
		next:  make([]int32, blocks),
	}
	for 1<<l.lineShift < cfg.LineBytes {
		l.lineShift++
	}
	l.head = make([]int32, l.sets)
	l.tail = make([]int32, l.sets)
	// Initial order is way index order, way 0 at the head.
	for s := 0; s < l.sets; s++ {
		base := int32(s * l.ways)
		for w := int32(0); w < int32(l.ways); w++ {
			l.prev[base+w] = base + w - 1
			l.next[base+w] = base + w + 1
		}
		l.prev[base] = -1
		l.next[base+int32(l.ways)-1] = -1
		l.head[s], l.tail[s] = base, base+int32(l.ways)-1
	}
	return l
}

func (l *listCache) touch(set int, n int32) {
	if l.head[set] == n {
		return
	}
	p, nx := l.prev[n], l.next[n]
	if p >= 0 {
		l.next[p] = nx
	}
	if nx >= 0 {
		l.prev[nx] = p
	}
	if l.tail[set] == n {
		l.tail[set] = p
	}
	h := l.head[set]
	l.prev[n], l.next[n] = -1, h
	l.prev[h] = n
	l.head[set] = n
}

func (l *listCache) access(addr uint64, ctx uint8, lo, hi int) Result {
	lineAddr := addr >> l.lineShift
	set := int(lineAddr % uint64(l.sets))
	base := set * l.ways
	res := Result{Set: uint32(set), LineAddr: lineAddr}
	for w := 0; w < l.ways; w++ {
		if n := base + w; l.valid[n] && l.line[n] == lineAddr {
			l.owner[n] = ctx
			l.touch(set, int32(n))
			res.Hit, res.Node = true, int32(n)
			return res
		}
	}
	victim := -1
	for w := lo; w < hi; w++ {
		if !l.valid[base+w] {
			victim = base + w
			break
		}
	}
	if victim < 0 {
		for n := l.tail[set]; n >= 0; n = l.prev[n] {
			if w := int(n) - base; w >= lo && w < hi {
				victim = int(n)
				break
			}
		}
		res.Evicted, res.EvictedLine, res.EvictedOwner = true, l.line[victim], l.owner[victim]
	}
	l.line[victim], l.owner[victim], l.valid[victim] = lineAddr, ctx, true
	l.touch(set, int32(victim))
	res.Node = int32(victim)
	return res
}

func (l *listCache) invalidate(lineAddr uint64) bool {
	base := int(lineAddr%uint64(l.sets)) * l.ways
	for n := base; n < base+l.ways; n++ {
		if l.valid[n] && l.line[n] == lineAddr {
			l.valid[n] = false
			return true
		}
	}
	return false
}

// recencyGeometries are the caches of the oracle tests: 1, 3, 8 and 16
// ways (16 fills the whole order word), two to eight sets.
var recencyGeometries = []Config{
	{SizeBytes: 2 * 1 * 64, LineBytes: 64, Ways: 1, HitLatency: 1},
	{SizeBytes: 4 * 3 * 64, LineBytes: 64, Ways: 3, HitLatency: 1},
	{SizeBytes: 8 * 8 * 64, LineBytes: 64, Ways: 8, HitLatency: 1},
	{SizeBytes: 2 * 16 * 64, LineBytes: 64, Ways: 16, HitLatency: 1},
}

// recencyOp is one step of an oracle stream: an access to line by ctx
// allocating into ways [lo, hi), an AccessHit (the L1 path, always the
// full range), or an InvalidateLine of line.
type recencyOp struct {
	line       uint64
	ctx        uint8
	lo, hi     int
	hitOnly    bool
	invalidate bool
}

// checkRecencyAgainstOracle runs ops through a Cache and the list
// oracle, comparing Hit, Node, Evicted, EvictedLine and EvictedOwner
// (or the hit bit, or the invalidation result) on every step.
func checkRecencyAgainstOracle(t testing.TB, cfg Config, ops []recencyOp) {
	t.Helper()
	c, l := MustNew(cfg), newListCache(cfg)
	for i, op := range ops {
		addr := op.line << 6
		switch {
		case op.invalidate:
			if got, want := c.InvalidateLine(op.line), l.invalidate(op.line); got != want {
				t.Fatalf("ways %d: op %d: InvalidateLine(%x) = %v, oracle %v", cfg.Ways, i, op.line, got, want)
			}
		case op.hitOnly:
			want := l.access(addr, op.ctx, 0, cfg.Ways)
			if got := c.AccessHit(addr, op.ctx); got != want.Hit {
				t.Fatalf("ways %d: op %d: AccessHit(%x) = %v, oracle %+v", cfg.Ways, i, op.line, got, want)
			}
		default:
			got, want := c.AccessInWays(addr, op.ctx, op.lo, op.hi), l.access(addr, op.ctx, op.lo, op.hi)
			if got != want {
				t.Fatalf("ways %d: op %d (line %x ctx %d ways [%d,%d)): got %+v, oracle %+v",
					cfg.Ways, i, op.line, op.ctx, op.lo, op.hi, got, want)
			}
		}
	}
}

// decodeRecencyOps turns bytes into an oracle stream, three bytes a
// step: the line (up to 3×Ways distinct lines per set), the context,
// and a selector choosing a full-range access, a partitioned access,
// an AccessHit or an invalidation.
func decodeRecencyOps(cfg Config, data []byte) []recencyOp {
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	var ops []recencyOp
	for b := data; len(b) >= 3; b = b[3:] {
		op := recencyOp{
			line: uint64(b[0]) % uint64(3*cfg.Ways*sets),
			ctx:  b[1],
			hi:   cfg.Ways,
		}
		switch b[2] & 7 {
		case 0, 1:
			op.lo = int(b[2]>>3) % cfg.Ways
			op.hi = op.lo + 1 + int(b[1])%(cfg.Ways-op.lo)
		case 2:
			op.hitOnly = true
		case 3:
			op.invalidate = true
		}
		ops = append(ops, op)
	}
	return ops
}

func TestRecencyMatchesListOracle(t *testing.T) {
	for _, cfg := range recencyGeometries {
		r := stats.NewRNG(uint64(cfg.Ways))
		data := make([]byte, 3*30000)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		checkRecencyAgainstOracle(t, cfg, decodeRecencyOps(cfg, data))
	}
}

// FuzzRecencyMatchesListOracle decodes arbitrary bytes into a cache
// geometry and a stream of accesses from random contexts with random
// [lo, hi) partitions, L1-style AccessHit calls and invalidations,
// and checks the packed order word against the list oracle on every
// step.
func FuzzRecencyMatchesListOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{2, 0, 0, 4, 16, 1, 4, 32, 0, 8, 48, 1, 0, 0, 0, 16, 9, 3})
	f.Add([]byte{3, 0, 0, 4, 32, 1, 4, 64, 0, 4, 96, 1, 4, 0, 0, 0, 128, 5, 1, 7, 3, 9})
	f.Add([]byte{1, 5, 7, 0, 5, 2, 3, 11, 200, 1, 5, 7, 2, 0, 9, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := recencyGeometries[int(data[0])%len(recencyGeometries)]
		checkRecencyAgainstOracle(t, cfg, decodeRecencyOps(cfg, data[1:]))
	})
}
