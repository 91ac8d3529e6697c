package sim

import (
	"errors"
	"testing"

	"cchunter/internal/obs"

	"cchunter/internal/trace"
)

func TestComputeAdvancesClock(t *testing.T) {
	s := MustNew(TestConfig())
	defer s.Close()
	var end uint64
	s.Spawn(NewProgram("p", func(m *Machine) {
		m.Compute(1000)
		m.Compute(500)
		end = m.Now()
	}))
	s.Run(1_000_000)
	if end != 1500 {
		t.Errorf("clock after computes = %d, want 1500", end)
	}
}

func TestLoadLatencies(t *testing.T) {
	s := MustNew(TestConfig())
	defer s.Close()
	var cold, l1hit, l2hit uint64
	s.Spawn(NewProgram("p", func(m *Machine) {
		addr := m.PrivateAddr(7)
		cold = m.Load(addr)  // miss everywhere
		l1hit = m.Load(addr) // L1 hit
		// Evict addr from the 8-way L1 set but not from L2: touch 8
		// more lines mapping to the same L1 set (64 L1 sets; stride 64
		// lines in line-index space re-hits the same L1 set while
		// spreading across L2 sets only as far as the geometry says).
		geo := m.Geometry()
		for i := 1; i <= geo.L1Ways; i++ {
			m.Load(m.PrivateAddr(7 + uint64(i*geo.L1Sets)))
		}
		l2hit = m.Load(addr)
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
		defer s.Close()
		rec := trace.NewRecorder()
		s.AddListener(rec)
		for i := 0; i < 4; i++ {
			i := i
			s.Spawn(NewProgram("worker", func(m *Machine) {
				for j := 0; ; j++ {
					m.AtomicUnaligned(m.PrivateAddr(uint64(j)))
					m.DivN(3)
					m.Compute(uint64(100 * (i + 1)))
					m.Load(m.PrivateAddr(uint64(j % 64)))
				}
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
	defer s.Close()
	rec := trace.NewRecorder()
	s.AddListener(rec)
	for i := 0; i < 6; i++ {
		s.Spawn(NewProgram("mix", func(m *Machine) {
			addrs := make([]uint64, 16)
			for j := 0; ; j++ {
				for k := range addrs {
					addrs[k] = m.PrivateAddr(uint64(j*16 + k))
				}
				m.LoadN(addrs)
				m.DivN(8)
				m.AtomicUnaligned(0)
			}
		}))
	}
	s.Run(2_000_000)
	if rec.Train().Len() == 0 {
		t.Fatal("expected events")
	}
}

func TestBusLockEventsEmitted(t *testing.T) {
	s := MustNew(TestConfig())
	defer s.Close()
	rec := trace.NewRecorder(trace.KindBusLock)
	s.AddListener(rec)
	s.Spawn(NewProgram("locker", func(m *Machine) {
		for i := 0; i < 10; i++ {
			m.AtomicUnaligned(0)
		}
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
	defer s.Close()
	rec := trace.NewRecorder(trace.KindDivContention)
	s.AddListener(rec)
	hammer := func(m *Machine) {
		for {
			m.Div()
		}
	}
	s.Spawn(NewProgram("t", hammer), Pin(0))
	s.Spawn(NewProgram("s", hammer), Pin(1)) // same core, other thread
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
	defer s.Close()
	rec := trace.NewRecorder(trace.KindDivContention)
	s.AddListener(rec)
	hammer := func(m *Machine) {
		for {
			m.Div()
		}
	}
	s.Spawn(NewProgram("a", hammer), Pin(0))
	s.Spawn(NewProgram("b", hammer), Pin(2)) // different core
	s.Run(100_000)
	if rec.Train().Len() != 0 {
		t.Errorf("cross-core divider contention should be impossible, got %d events",
			rec.Train().Len())
	}
}

func TestConflictMissEventsOnSharedL2(t *testing.T) {
	s := MustNew(TestConfig())
	defer s.Close()
	rec := trace.NewRecorder(trace.KindConflictMiss)
	s.AddListener(rec)
	// Two hyperthreads ping-pong on the same L2 sets in alternating
	// time slots, the way the covert channel's prime and probe phases
	// alternate.
	const slot = 50_000
	pingpong := func(phase uint64) func(m *Machine) {
		return func(m *Machine) {
			geo := m.Geometry()
			for i := uint64(0); ; i++ {
				m.WaitUntil((2*i + phase) * slot)
				for set := uint32(0); set < 8; set++ {
					for w := 0; w < geo.L2Ways; w++ {
						m.Load(m.L2AddrForSet(set, w))
					}
				}
			}
		}
	}
	s.Spawn(NewProgram("t", pingpong(0)), Pin(0))
	s.Spawn(NewProgram("s", pingpong(1)), Pin(1))
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
	defer s.Close()
	var a, b uint64
	s.Spawn(NewProgram("p", func(m *Machine) {
		a = m.WaitUntil(5000)
		b = m.WaitUntil(100) // already past: no-op
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
	defer s.Close()
	var aSlices, bSlices []uint64
	s.Spawn(NewProgram("a", func(m *Machine) {
		for {
			m.Compute(1000)
			aSlices = append(aSlices, m.Now())
		}
	}))
	s.Spawn(NewProgram("b", func(m *Machine) {
		for {
			m.Compute(1000)
			bSlices = append(bSlices, m.Now())
		}
	}))
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
	defer s.Close()
	s.Spawn(NewProgram("wanderer", func(m *Machine) {
		for {
			m.Compute(1000)
		}
	}))
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
			s.Spawn(NewProgram("busy", func(m *Machine) {
				for {
					m.Compute(1000)
				}
			}))
		}
		s.Run(100_000)
		s.Run(200_000)
		st := s.SchedStats()
		s.Close()
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
	defer s.Close()
	s.Spawn(NewProgram("pinned", func(m *Machine) {
		for {
			m.Compute(1000)
		}
	}), Pin(3))
	s.Run(200_000)
	if s.SchedStats().Migrations != 0 {
		t.Errorf("pinned process migrated %d times", s.SchedStats().Migrations)
	}
}

func TestProcessCompletion(t *testing.T) {
	s := MustNew(TestConfig())
	defer s.Close()
	p := s.Spawn(NewProgram("finite", func(m *Machine) {
		m.Compute(100)
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
	defer s.Close()
	var ticks []uint64
	s.Spawn(NewProgram("p", func(m *Machine) {
		for {
			m.Compute(10_000)
			ticks = append(ticks, m.Now())
		}
	}))
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

func TestCloseStopsPrograms(t *testing.T) {
	s := MustNew(TestConfig())
	s.Spawn(NewProgram("loop", func(m *Machine) {
		for {
			m.Compute(100)
		}
	}))
	s.Run(10_000)
	s.Close()
	s.Close() // idempotent
}

func TestSpawnAfterRunPanics(t *testing.T) {
	s := MustNew(TestConfig())
	defer s.Close()
	s.Spawn(NewProgram("p", func(m *Machine) { m.Compute(1) }))
	s.Run(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Spawn(NewProgram("late", func(m *Machine) {}))
}

func TestGeometry(t *testing.T) {
	s := MustNew(DefaultConfig())
	defer s.Close()
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
	defer s.Close()
	var lat1 uint64
	s.Spawn(NewProgram("a", func(m *Machine) {
		m.Load(m.PrivateAddr(1))
	}), Pin(0))
	s.Spawn(NewProgram("b", func(m *Machine) {
		m.Compute(100_000) // run after a's load
		lat1 = m.Load(m.PrivateAddr(1))
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
		pingpong := func(m *Machine) {
			geo := m.Geometry()
			for {
				for w := 0; w < geo.L2Ways; w++ {
					m.Load(m.L2AddrForSet(0, w))
				}
				m.Sleep(100)
			}
		}
		s.Spawn(NewProgram("t", pingpong), Pin(0))
		s.Spawn(NewProgram("s", pingpong), Pin(1))
		s.Run(1_000_000)
		if rec.Train().Len() == 0 {
			t.Errorf("tracker %v found no conflicts", kind)
		}
		s.Close()
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"no cores":         func(c *Config) { c.Cores = 0 },
		"no threads":       func(c *Config) { c.ThreadsPerCore = 0 },
		"zero quantum":     func(c *Config) { c.QuantumCycles = 0 },
		"bad faults":       func(c *Config) { c.Faults.DropProb = 2 },
		"negative batch":   func(c *Config) { c.EventBatch = -1 },
		"bad L2 geometry":  func(c *Config) { c.L2.LineBytes = 48 },
		"bad L1 geometry":  func(c *Config) { c.L1.Ways = 0 },
		"256 contexts":     func(c *Config) { c.Cores, c.ThreadsPerCore = 128, 2 },
		"300 contexts":     func(c *Config) { c.Cores, c.ThreadsPerCore = 300, 1 },
		"L1 lines shorter": func(c *Config) { c.L1.LineBytes, c.L1.SizeBytes = 32, 16<<10 },
		"L2 lines longer":  func(c *Config) { c.L2.LineBytes = 128 },
	} {
		cfg := TestConfig()
		mutate(&cfg)
		s, err := New(cfg)
		if err == nil {
			s.Close()
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
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("255 contexts rejected: %v", err)
	}
	s.Close()
}
