package sim

import (
	"errors"
	"testing"

	"cchunter/internal/obs"
	"cchunter/internal/tlb"
	"cchunter/internal/trace"
)

// stepFunc is the Program the tests spawn: fn returns op number n
// (counting from 0) given the previous op's result, the zero OpResult
// when n is 0, and false once the program is done.
type stepFunc struct {
	name string
	fn   func(m *Machine, n int, prev OpResult) (Op, bool)
	m    *Machine
	n    int
}

func program(name string, fn func(m *Machine, n int, prev OpResult) (Op, bool)) *stepFunc {
	return &stepFunc{name: name, fn: fn}
}

func (p *stepFunc) Name() string     { return p.name }
func (p *stepFunc) Begin(m *Machine) { p.m = m }
func (p *stepFunc) Step(prev OpResult) (Op, bool) {
	op, ok := p.fn(p.m, p.n, prev)
	p.n++
	return op, ok
}

// busy computes 1000 cycles at a time, forever.
func busy(*Machine, int, OpResult) (Op, bool) {
	return Op{Kind: OpCompute, Cycles: 1000}, true
}

// hammer divides back-to-back, forever.
func hammer(*Machine, int, OpResult) (Op, bool) {
	return Op{Kind: OpDiv}, true
}

// clockReader computes `cycles` cycles and then reads the clock into
// *out, forever.
func clockReader(cycles uint64, out *[]uint64) func(*Machine, int, OpResult) (Op, bool) {
	return func(_ *Machine, n int, prev OpResult) (Op, bool) {
		if n%2 == 1 {
			return Op{Kind: OpNow}, true
		}
		if n > 0 {
			*out = append(*out, prev.Now)
		}
		return Op{Kind: OpCompute, Cycles: cycles}, true
	}
}

// pingpongSlot is the slot length of pingpong.
const pingpongSlot = 50_000

// pingpong loads every way of L2 sets 0–7 in alternating time slots,
// the way the cache channel's prime and probe phases alternate: slot
// 2i+phase of iteration i starts with a WaitUntil, then the loads.
func pingpong(phase uint64) func(*Machine, int, OpResult) (Op, bool) {
	return func(m *Machine, n int, _ OpResult) (Op, bool) {
		ways := m.Geometry().L2Ways
		per := 1 + 8*ways
		i, k := uint64(n/per), n%per
		if k == 0 {
			return Op{Kind: OpWaitUntil, Cycles: (2*i + phase) * pingpongSlot}, true
		}
		k--
		return Op{Kind: OpLoad, Addr: m.L2AddrForSet(uint32(k/ways), k%ways)}, true
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	s := MustNew(TestConfig())
	var end uint64
	s.Spawn(program("p", func(_ *Machine, n int, prev OpResult) (Op, bool) {
		switch n {
		case 0:
			return Op{Kind: OpCompute, Cycles: 1000}, true
		case 1:
			return Op{Kind: OpCompute, Cycles: 500}, true
		case 2:
			return Op{Kind: OpNow}, true
		}
		end = prev.Now
		return Op{}, false
	}))
	s.Run(1_000_000)
	if end != 1500 {
		t.Errorf("clock after computes = %d, want 1500", end)
	}
}

func TestLoadLatencies(t *testing.T) {
	s := MustNew(TestConfig())
	var cold, l1hit, l2hit uint64
	s.Spawn(program("p", func(m *Machine, n int, prev OpResult) (Op, bool) {
		addr := m.PrivateAddr(7)
		geo := m.Geometry()
		switch n {
		case 0: // miss everywhere
			return Op{Kind: OpLoad, Addr: addr}, true
		case 1: // L1 hit
			cold = prev.Latency
			return Op{Kind: OpLoad, Addr: addr}, true
		case 2:
			l1hit = prev.Latency
		case geo.L1Ways + 2:
			return Op{Kind: OpLoad, Addr: addr}, true
		case geo.L1Ways + 3:
			l2hit = prev.Latency
			return Op{}, false
		}
		// Evict addr from the 8-way L1 set but not from L2: touch 8
		// more lines mapping to the same L1 set (64 L1 sets; stride 64
		// lines in line-index space re-hits the same L1 set while
		// spreading across L2 sets only as far as the geometry says).
		i := n - 1
		return Op{Kind: OpLoad, Addr: m.PrivateAddr(7 + uint64(i*geo.L1Sets))}, true
	}))
	s.Run(10_000_000)
	cfg := TestConfig()
	if cold <= l2hit || l2hit <= l1hit {
		t.Errorf("latency ordering wrong: cold=%d l2=%d l1=%d", cold, l2hit, l1hit)
	}
	if l1hit != cfg.L1.HitLatency {
		t.Errorf("l1 hit = %d, want %d", l1hit, cfg.L1.HitLatency)
	}
	wantL2 := cfg.L1.HitLatency + cfg.L2.HitLatency
	if l2hit != wantL2 {
		t.Errorf("l2 hit = %d, want %d", l2hit, wantL2)
	}
	wantCold := wantL2 + cfg.Bus.AccessCycles + cfg.MemCycles
	if cold != wantCold {
		t.Errorf("cold = %d, want %d", cold, wantCold)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []trace.Event {
		cfg := TestConfig()
		cfg.MigrationProb = 0.5
		s := MustNew(cfg)
		rec := trace.NewRecorder()
		s.AddListener(rec)
		for i := 0; i < 4; i++ {
			i := i
			s.Spawn(program("worker", func(m *Machine, n int, _ OpResult) (Op, bool) {
				j := uint64(n / 4)
				switch n % 4 {
				case 0:
					return Op{Kind: OpAtomicUnaligned, Addr: m.PrivateAddr(j)}, true
				case 1:
					return Op{Kind: OpDivN, Count: 3}, true
				case 2:
					return Op{Kind: OpCompute, Cycles: uint64(100 * (i + 1))}, true
				}
				return Op{Kind: OpLoad, Addr: m.PrivateAddr(j % 64)}, true
			}))
		}
		s.Run(3_000_000)
		return append([]trace.Event(nil), rec.Train().Events()...)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events generated")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEventStreamMonotonic(t *testing.T) {
	// The recorder panics on out-of-order events; drive a busy mixed
	// workload (batches included) to exercise the stamping rules.
	s := MustNew(TestConfig())
	rec := trace.NewRecorder()
	s.AddListener(rec)
	for i := 0; i < 6; i++ {
		addrs := make([]uint64, 16)
		s.Spawn(program("mix", func(m *Machine, n int, _ OpResult) (Op, bool) {
			switch n % 3 {
			case 0:
				j := n / 3
				for k := range addrs {
					addrs[k] = m.PrivateAddr(uint64(j*16 + k))
				}
				return Op{Kind: OpLoadN, Addrs: addrs}, true
			case 1:
				return Op{Kind: OpDivN, Count: 8}, true
			}
			return Op{Kind: OpAtomicUnaligned, Addr: 0}, true
		}))
	}
	s.Run(2_000_000)
	if rec.Train().Len() == 0 {
		t.Fatal("expected events")
	}
}

func TestBusLockEventsEmitted(t *testing.T) {
	s := MustNew(TestConfig())
	rec := trace.NewRecorder(trace.KindBusLock)
	s.AddListener(rec)
	s.Spawn(program("locker", func(_ *Machine, n int, _ OpResult) (Op, bool) {
		return Op{Kind: OpAtomicUnaligned, Addr: 0}, n < 10
	}))
	s.Run(10_000_000)
	if rec.Train().Len() != 10 {
		t.Errorf("bus lock events = %d, want 10", rec.Train().Len())
	}
	if got := s.BusStats().Locks; got != 10 {
		t.Errorf("bus stats locks = %d", got)
	}
}

func TestDividerContentionBetweenHyperthreads(t *testing.T) {
	s := MustNew(TestConfig())
	rec := trace.NewRecorder(trace.KindDivContention)
	s.AddListener(rec)
	s.Spawn(program("t", hammer), Pin(0))
	s.Spawn(program("s", hammer), Pin(1)) // same core, other thread
	s.Run(100_000)
	if rec.Train().Len() == 0 {
		t.Fatal("no contention between hyperthreads")
	}
	// Both directions should appear.
	dirs := map[[2]uint8]bool{}
	for _, e := range rec.Train().Events() {
		dirs[[2]uint8{e.Actor, e.Victim}] = true
	}
	if !dirs[[2]uint8{0, 1}] || !dirs[[2]uint8{1, 0}] {
		t.Errorf("contention directions seen: %v", dirs)
	}
}

func TestNoDividerContentionAcrossCores(t *testing.T) {
	s := MustNew(TestConfig())
	rec := trace.NewRecorder(trace.KindDivContention)
	s.AddListener(rec)
	s.Spawn(program("a", hammer), Pin(0))
	s.Spawn(program("b", hammer), Pin(2)) // different core
	s.Run(100_000)
	if rec.Train().Len() != 0 {
		t.Errorf("cross-core divider contention should be impossible, got %d events",
			rec.Train().Len())
	}
}

func TestConflictMissEventsOnSharedL2(t *testing.T) {
	s := MustNew(TestConfig())
	rec := trace.NewRecorder(trace.KindConflictMiss)
	s.AddListener(rec)
	// Two hyperthreads ping-pong on the same L2 sets in alternating
	// time slots.
	s.Spawn(program("t", pingpong(0)), Pin(0))
	s.Spawn(program("s", pingpong(1)), Pin(1))
	s.Run(3_000_000)
	if rec.Train().Len() == 0 {
		t.Fatal("no conflict misses on contended sets")
	}
	// Cross-context replacements must dominate.
	cross := 0
	for _, e := range rec.Train().Events() {
		if e.Victim != trace.NoContext && e.Victim != e.Actor {
			cross++
		}
	}
	if cross == 0 {
		t.Error("no cross-context conflict misses")
	}
}

func TestWaitUntilAndSleep(t *testing.T) {
	s := MustNew(TestConfig())
	var a, b uint64
	s.Spawn(program("p", func(_ *Machine, n int, prev OpResult) (Op, bool) {
		switch n {
		case 0:
			return Op{Kind: OpWaitUntil, Cycles: 5000}, true
		case 1:
			a = prev.Now
			return Op{Kind: OpWaitUntil, Cycles: 100}, true // already past: no-op
		}
		b = prev.Now
		return Op{}, false
	}))
	s.Run(1_000_000)
	if a != 5000 || b != 5000 {
		t.Errorf("WaitUntil clocks = %d, %d", a, b)
	}
}

func TestQuantumRoundRobin(t *testing.T) {
	cfg := TestConfig()
	cfg.Cores = 1
	cfg.ThreadsPerCore = 1
	cfg.QuantumCycles = 10_000
	s := MustNew(cfg)
	var aSlices, bSlices []uint64
	s.Spawn(program("a", clockReader(1000, &aSlices)))
	s.Spawn(program("b", clockReader(1000, &bSlices)))
	s.Run(100_000)
	if len(aSlices) == 0 || len(bSlices) == 0 {
		t.Fatal("both processes must get CPU time on one context")
	}
	if s.SchedStats().ContextSwitches == 0 {
		t.Error("expected context switches")
	}
	// Process a runs the first quantum; process b must not observe
	// clocks below one quantum.
	if bSlices[0] < cfg.QuantumCycles {
		t.Errorf("b ran during a's first quantum at %d", bSlices[0])
	}
}

func TestMigration(t *testing.T) {
	cfg := TestConfig()
	cfg.QuantumCycles = 5_000
	cfg.MigrationProb = 1.0
	s := MustNew(cfg)
	s.Spawn(program("wanderer", busy))
	s.Run(200_000)
	if s.SchedStats().Migrations == 0 {
		t.Error("expected migrations with probability 1")
	}
}

// TestSchedMetricsSumAcrossRuns: the scheduling metrics are counters
// that publish deltas, so two runs sharing one registry (each run in
// two segments) report the sum of their scheduling counts.
func TestSchedMetricsSumAcrossRuns(t *testing.T) {
	cfg := TestConfig()
	cfg.QuantumCycles = 5_000
	cfg.MigrationProb = 0.3
	cfg.Metrics = obs.NewRegistry()
	var want SchedStats
	for run := 0; run < 2; run++ {
		cfg.Seed = uint64(run + 1)
		s := MustNew(cfg)
		for p := 0; p < cfg.Contexts()+4; p++ {
			s.Spawn(program("busy", busy))
		}
		s.Run(100_000)
		s.Run(200_000)
		st := s.SchedStats()
		if st.ContextSwitches == 0 || st.Migrations == 0 {
			t.Fatalf("run %d: no scheduling activity: %+v", run, st)
		}
		want.ContextSwitches += st.ContextSwitches
		want.Migrations += st.Migrations
	}
	if got := cfg.Metrics.Counter("sim.ctx_switches").Value(); got != want.ContextSwitches {
		t.Errorf("sim.ctx_switches = %d, want %d summed over both runs", got, want.ContextSwitches)
	}
	if got := cfg.Metrics.Counter("sim.migrations").Value(); got != want.Migrations {
		t.Errorf("sim.migrations = %d, want %d summed over both runs", got, want.Migrations)
	}
}

func TestPinnedNeverMigrates(t *testing.T) {
	cfg := TestConfig()
	cfg.QuantumCycles = 5_000
	cfg.MigrationProb = 1.0
	s := MustNew(cfg)
	s.Spawn(program("pinned", busy), Pin(3))
	s.Run(200_000)
	if s.SchedStats().Migrations != 0 {
		t.Errorf("pinned process migrated %d times", s.SchedStats().Migrations)
	}
}

func TestProcessCompletion(t *testing.T) {
	s := MustNew(TestConfig())
	p := s.Spawn(program("finite", func(_ *Machine, n int, _ OpResult) (Op, bool) {
		return Op{Kind: OpCompute, Cycles: 100}, n == 0
	}))
	s.Run(1_000_000)
	if !p.Done() {
		t.Error("finite program should be done")
	}
	if p.Name() != "finite" || p.ID() != 0 {
		t.Errorf("identity: %q %d", p.Name(), p.ID())
	}
}

func TestRunIsResumable(t *testing.T) {
	s := MustNew(TestConfig())
	var ticks []uint64
	s.Spawn(program("p", clockReader(10_000, &ticks)))
	s.Run(50_000)
	n1 := len(ticks)
	s.Run(100_000)
	if len(ticks) <= n1 {
		t.Error("second Run made no progress")
	}
	if n1 < 4 || n1 > 6 {
		t.Errorf("first Run ticks = %d, want ~5", n1)
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	s := MustNew(TestConfig())
	s.Spawn(program("p", func(_ *Machine, n int, _ OpResult) (Op, bool) {
		return Op{Kind: OpCompute, Cycles: 1}, n == 0
	}))
	s.Run(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Spawn(program("late", func(*Machine, int, OpResult) (Op, bool) { return Op{}, false }))
}

func TestGeometry(t *testing.T) {
	s := MustNew(DefaultConfig())
	g := s.Geometry()
	if g.Contexts != 8 || g.Cores != 4 || g.ThreadsPerCore != 2 {
		t.Errorf("geometry: %+v", g)
	}
	if g.L2Sets != 2048 || g.L2Ways != 8 || g.LineBytes != 64 {
		t.Errorf("L2 geometry: %+v", g)
	}
	if g.L1Sets != 64 {
		t.Errorf("L1 sets = %d", g.L1Sets)
	}
}

func TestCyclesHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.CyclesPerSecond(0.1) != 250_000_000 {
		t.Error("CyclesPerSecond wrong")
	}
	if cfg.CyclesPerBit(1000) != 2_500_000 {
		t.Error("CyclesPerBit wrong")
	}
	if cfg.Contexts() != 8 {
		t.Error("Contexts wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CyclesPerBit(0) should panic")
		}
	}()
	cfg.CyclesPerBit(0)
}

func TestPrivateAddressesDoNotAlias(t *testing.T) {
	s := MustNew(TestConfig())
	var lat1 uint64
	s.Spawn(program("a", func(m *Machine, n int, _ OpResult) (Op, bool) {
		return Op{Kind: OpLoad, Addr: m.PrivateAddr(1)}, n == 0
	}), Pin(0))
	s.Spawn(program("b", func(m *Machine, n int, prev OpResult) (Op, bool) {
		switch n {
		case 0:
			return Op{Kind: OpCompute, Cycles: 100_000}, true // run after a's load
		case 1:
			return Op{Kind: OpLoad, Addr: m.PrivateAddr(1)}, true
		}
		lat1 = prev.Latency
		return Op{}, false
	}), Pin(1))
	s.Run(1_000_000)
	cfg := TestConfig()
	wantCold := cfg.L1.HitLatency + cfg.L2.HitLatency + cfg.Bus.AccessCycles + cfg.MemCycles
	if lat1 != wantCold {
		t.Errorf("process b hit process a's line: lat=%d want cold=%d", lat1, wantCold)
	}
}

func TestTrackerKindSelectable(t *testing.T) {
	for _, kind := range []TrackerKind{TrackerGenerational, TrackerIdeal} {
		cfg := TestConfig()
		cfg.Tracker = kind
		s := MustNew(cfg)
		rec := trace.NewRecorder(trace.KindConflictMiss)
		s.AddListener(rec)
		// Load every way of set 0, then sleep 100 cycles: read the
		// clock and wait until 100 cycles past it.
		fill := func(m *Machine, n int, prev OpResult) (Op, bool) {
			ways := m.Geometry().L2Ways
			switch k := n % (ways + 2); {
			case k < ways:
				return Op{Kind: OpLoad, Addr: m.L2AddrForSet(0, k)}, true
			case k == ways:
				return Op{Kind: OpNow}, true
			}
			return Op{Kind: OpWaitUntil, Cycles: prev.Now + 100}, true
		}
		s.Spawn(program("t", fill), Pin(0))
		s.Spawn(program("s", fill), Pin(1))
		s.Run(1_000_000)
		if rec.Train().Len() == 0 {
			t.Errorf("tracker %v found no conflicts", kind)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"no cores":                    func(c *Config) { c.Cores = 0 },
		"no threads":                  func(c *Config) { c.ThreadsPerCore = 0 },
		"zero quantum":                func(c *Config) { c.QuantumCycles = 0 },
		"bad faults":                  func(c *Config) { c.Faults.DropProb = 2 },
		"negative batch":              func(c *Config) { c.EventBatch = -1 },
		"bad L2 geometry":             func(c *Config) { c.L2.LineBytes = 48 },
		"bad L1 geometry":             func(c *Config) { c.L1.Ways = 0 },
		"256 contexts":                func(c *Config) { c.Cores, c.ThreadsPerCore = 128, 2 },
		"300 contexts":                func(c *Config) { c.Cores, c.ThreadsPerCore = 300, 1 },
		"L1 lines shorter":            func(c *Config) { c.L1.LineBytes, c.L1.SizeBytes = 32, 16<<10 },
		"L2 lines longer":             func(c *Config) { c.L2.LineBytes = 128 },
		"TLB sets not a power of two": func(c *Config) { c.TLB = tlb.Config{Sets: 3, Ways: 2, HitCycles: 1, WalkCycles: 30} },
		"zero TLB ways":               func(c *Config) { c.TLB = tlb.Config{Sets: 4, Ways: 0, HitCycles: 1, WalkCycles: 30} },
		"zero TLB latency":            func(c *Config) { c.TLB = tlb.Config{Sets: 4, Ways: 2, HitCycles: 0, WalkCycles: 30} },
	} {
		cfg := TestConfig()
		mutate(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("%s: New accepted the configuration", name)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", name, err)
		}
	}
	// 255 contexts is the most that leave trace.NoContext unused.
	cfg := TestConfig()
	cfg.Cores, cfg.ThreadsPerCore = 255, 1
	if _, err := New(cfg); err != nil {
		t.Fatalf("255 contexts rejected: %v", err)
	}
}
