package sim

import (
	"testing"

	"cchunter/internal/cache"
	"cchunter/internal/mitigate"
	"cchunter/internal/stats"
)

// coreValidConfig is a machine with a small L1 and L2, so a few
// hundred lines keep both evicting, and with `cores` single- or
// dual-threaded cores.
func coreValidConfig(cores, threads int, partitioned bool) Config {
	cfg := TestConfig()
	cfg.Cores, cfg.ThreadsPerCore = cores, threads
	cfg.L1 = cache.Config{SizeBytes: 4 * 2 * 64, LineBytes: 64, Ways: 2, HitLatency: 4}
	cfg.L2 = cache.Config{SizeBytes: 16 * 4 * 64, LineBytes: 64, Ways: 4, HitLatency: 12}
	if partitioned {
		cfg.Mitigations.Partition = mitigate.NewCachePartition(cfg.Contexts(), nil)
	}
	return cfg
}

// checkCoreValid reports the first L1-resident line among lines that
// is not L2-resident with its core's core-valid bit set.
func checkCoreValid(t *testing.T, s *System, lines int, step int) {
	t.Helper()
	for _, co := range s.cores {
		for line := 0; line < lines; line++ {
			addr := uint64(line) << 6
			if !co.l1.Contains(addr) {
				continue
			}
			frame, ok := s.l2.Frame(addr)
			if !ok {
				t.Fatalf("step %d: line %x in core %d's L1 but not in the L2", step, line, co.id)
			}
			if s.coreValid[frame]&coreBit(co.id) == 0 {
				t.Fatalf("step %d: line %x in core %d's L1, its L2 frame %d has core-valid %08b",
					step, line, co.id, frame, s.coreValid[frame])
			}
		}
	}
}

// broadcastHierarchy is the reference for back-invalidation: the same
// L1s and L2, where every L2 eviction invalidates the line in every
// L1.
type broadcastHierarchy struct {
	l1s  []*cache.Cache
	l2   *cache.Cache
	part *mitigate.CachePartition
}

func newBroadcastHierarchy(cfg Config) *broadcastHierarchy {
	h := &broadcastHierarchy{l2: cache.MustNew(cfg.L2), part: cfg.Mitigations.Partition}
	for c := 0; c < cfg.Cores; c++ {
		h.l1s = append(h.l1s, cache.MustNew(cfg.L1))
	}
	return h
}

func (h *broadcastHierarchy) access(core int, ctx uint8, addr uint64) {
	if h.l1s[core].AccessHit(addr, ctx) {
		return
	}
	lo, hi := 0, h.l2.Ways()
	if h.part != nil {
		lo, hi = h.part.WayRange(ctx, hi)
	}
	if r := h.l2.AccessInWays(addr, ctx, lo, hi); r.Evicted {
		for _, l1 := range h.l1s {
			l1.InvalidateLine(r.EvictedLine)
		}
	}
}

// TestCoreValidBackInvalidationMatchesBroadcast drives random
// multi-core streams through memAccess: processes with private and
// shared lines that migrate to a random context with probability 0.05
// per access, unpartitioned and way-partitioned, on 4 dual-threaded
// cores and on 10 single-threaded cores (cores 7–9 share the last
// core-valid bit). After every access each L1-resident line must be
// L2-resident with its core's bit set, and every L1 must hold exactly
// what it holds in a hierarchy that broadcasts every invalidation.
func TestCoreValidBackInvalidationMatchesBroadcast(t *testing.T) {
	const lines, procs, steps = 192, 6, 6000
	for _, tc := range []struct {
		name           string
		cores, threads int
		partitioned    bool
	}{
		{"4x2", 4, 2, false},
		{"4x2-partitioned", 4, 2, true},
		{"10x1", 10, 1, false},
		{"10x1-partitioned", 10, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := coreValidConfig(tc.cores, tc.threads, tc.partitioned)
			s := MustNew(cfg)
			ref := newBroadcastHierarchy(cfg)
			r := stats.NewRNG(uint64(tc.cores*10 + tc.threads))
			where := make([]*hwContext, procs)
			for p := range where {
				where[p] = s.contexts[r.Intn(len(s.contexts))]
			}
			for step := 0; step < steps; step++ {
				p := r.Intn(procs)
				if r.Float64() < 0.05 {
					where[p] = s.contexts[r.Intn(len(s.contexts))]
				}
				// A third of the lines are shared; each process owns a
				// slice of the rest.
				line := uint64(r.Intn(lines / 3))
				if r.Intn(2) == 0 {
					line = uint64(lines/3 + p*(2*lines/3/procs) + r.Intn(2*lines/3/procs))
				}
				c := where[p]
				s.memAccess(c, line<<6, 0, 0)
				ref.access(c.core.id, c.id, line<<6)
				checkCoreValid(t, s, lines, step)
				for _, co := range s.cores {
					for l := 0; l < lines; l++ {
						if got, want := co.l1.Contains(uint64(l)<<6), ref.l1s[co.id].Contains(uint64(l)<<6); got != want {
							t.Fatalf("step %d: core %d L1 holds line %x = %v, broadcast reference %v",
								step, co.id, l, got, want)
						}
					}
				}
			}
			if evictions := s.l2.Stats().Evictions; evictions < steps/4 {
				t.Errorf("only %d L2 evictions in %d steps; the stream does not exercise back-invalidation", evictions, steps)
			}
		})
	}
}

// randomLoader is a Program issuing n loads over `lines` lines, which
// runs check before every op it issues, i.e. after every op the
// engine has executed so far.
type randomLoader struct {
	r     *stats.RNG
	lines int
	n     int
	check func()
}

func (l *randomLoader) Name() string     { return "random-loader" }
func (l *randomLoader) Begin(m *Machine) {}
func (l *randomLoader) Step(OpResult) (Op, bool) {
	l.check()
	if l.n == 0 {
		return Op{}, false
	}
	l.n--
	if l.r.Intn(8) == 0 {
		return Op{Kind: OpCompute, Cycles: 200}, true
	}
	return Op{Kind: OpLoad, Addr: uint64(l.r.Intn(l.lines)) << 6}, true
}

// TestCoreValidInvariantUnderMigration runs unpinned random loaders on
// the engine with a short quantum and MigrationProb 0.5, so processes
// leave lines behind in other cores' L1s, and checks the core-valid
// invariant before every op.
func TestCoreValidInvariantUnderMigration(t *testing.T) {
	const lines = 192
	for _, partitioned := range []bool{false, true} {
		cfg := coreValidConfig(4, 2, partitioned)
		cfg.QuantumCycles = 5_000
		cfg.MigrationProb = 0.5
		s := MustNew(cfg)
		step := 0
		check := func() {
			checkCoreValid(t, s, lines, step)
			step++
		}
		for p := 0; p < 6; p++ {
			s.Spawn(&randomLoader{r: stats.NewRNG(uint64(p + 1)), lines: lines, n: 1500, check: check})
		}
		s.Run(1 << 40)
		if s.SchedStats().Migrations == 0 || s.l2.Stats().Evictions == 0 {
			t.Errorf("partitioned=%v: %d migrations, %d L2 evictions; want both > 0",
				partitioned, s.SchedStats().Migrations, s.l2.Stats().Evictions)
		}
	}
}
