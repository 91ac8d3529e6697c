package sim

import (
	"testing"

	"cchunter/internal/mitigate"
	"cchunter/internal/trace"
)

func TestBusLimiterSlowsLockStorms(t *testing.T) {
	run := func(withLimiter bool) uint64 {
		cfg := TestConfig()
		if withLimiter {
			cfg.Mitigations.BusLimiter = mitigate.NewBusLockLimiter(cfg.Contexts(), 100_000, 2, 200_000)
		}
		s := MustNew(cfg)
		var end uint64
		s.Spawn(program("storm", func(_ *Machine, n int, prev OpResult) (Op, bool) {
			switch {
			case n < 50:
				return Op{Kind: OpAtomicUnaligned, Addr: 0}, true
			case n == 50:
				return Op{Kind: OpNow}, true
			}
			end = prev.Now
			return Op{}, false
		}))
		s.Run(100_000_000)
		return end
	}
	free := run(false)
	limited := run(true)
	if limited < 10*free {
		t.Errorf("limiter barely slowed the storm: %d vs %d cycles", limited, free)
	}
}

func TestPartitionPreventsCrossContextEviction(t *testing.T) {
	cfg := TestConfig()
	cfg.Mitigations.Partition = mitigate.NewCachePartition(cfg.Contexts(), nil)
	s := MustNew(cfg)
	rec := trace.NewRecorder(trace.KindConflictMiss)
	s.AddListener(rec)
	s.Spawn(program("t", pingpong(0)), Pin(0))
	s.Spawn(program("s", pingpong(1)), Pin(1))
	s.Run(3_000_000)
	for _, e := range rec.Train().Events() {
		if e.Victim != trace.NoContext && e.Victim != e.Actor {
			t.Fatalf("cross-context eviction under partitioning: %+v", e)
		}
	}
}

func TestDividerTDMEliminatesContention(t *testing.T) {
	cfg := TestConfig()
	cfg.Mitigations.DividerTDM = mitigate.NewDividerTDM(10_000)
	s := MustNew(cfg)
	rec := trace.NewRecorder(trace.KindDivContention)
	s.AddListener(rec)
	s.Spawn(program("a", hammer), Pin(0))
	s.Spawn(program("b", hammer), Pin(1))
	s.Run(500_000)
	if n := rec.Train().Len(); n != 0 {
		t.Errorf("TDM left %d contention events", n)
	}
}

func TestClockFuzzDegradesObservations(t *testing.T) {
	cfg := TestConfig()
	cfg.Mitigations.Fuzz = mitigate.NewClockFuzz(1000, 0, 1)
	s := MustNew(cfg)
	var lat, now1, now2 uint64
	s.Spawn(program("p", func(m *Machine, n int, prev OpResult) (Op, bool) {
		switch n {
		case 0:
			return Op{Kind: OpLoad, Addr: m.PrivateAddr(1)}, true // true ~226, quantized to 0
		case 1:
			lat = prev.Latency
			return Op{Kind: OpNow}, true
		case 2:
			now1 = prev.Now
			return Op{Kind: OpCompute, Cycles: 100}, true
		case 3:
			return Op{Kind: OpNow}, true
		}
		now2 = prev.Now
		return Op{}, false
	}))
	s.Run(1_000_000)
	if lat%1000 != 0 {
		t.Errorf("latency %d not quantized", lat)
	}
	if now1%1000 != 0 || now2%1000 != 0 {
		t.Errorf("clock reads %d, %d not quantized", now1, now2)
	}
	if now2 < now1 {
		t.Error("fuzzed clock went backwards")
	}
}
