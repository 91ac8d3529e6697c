package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"

	"cchunter"
	"cchunter/internal/core"
	"cchunter/internal/experiments"
)

// op is one unit of timed work. prepare, when set, runs untimed before
// it; run is the timed call and returns the untimed check of its
// output.
type op struct {
	name    string
	prepare func(tr *tracer) error
	run     func(tr *tracer) (check func() opResult)
}

// opResult is one op's checked outcome. Each op is one attempt.
type opResult struct {
	attempted, failed int
	reason            string   // the first failure, when failed > 0
	events            uint64   // indicator events the op processed
	verdict           *verdict // the pinned fields, for scenario ops
}

// workload builds one op set from an input seed. pinned holds the
// verdicts pinned for that seed, or nil; only workloads with pinned set
// have any. A run builds inputs op sets from its seed, and an untraced
// run sets up setupReps times and reports the median.
type workload struct {
	name      string
	setup     func(seed uint64, pinned map[string]verdict) ([]op, error)
	pinned    bool
	inputs    int
	setupReps int
}

var workloads = []workload{
	{name: "benign", setup: setupBenign, pinned: true, inputs: 8, setupReps: 15},
	// One set-up captures nine runs (~3 s), so replay uses one input
	// set and three set-ups.
	{name: "replay", setup: setupReplay, inputs: 1, setupReps: 3},
}

// benignScenarios are the Figure 14 benign pairs as ccrepro -fig 14
// runs them (64 quanta of 2.5M cycles, pair i seeded seed+i), each with
// the default three background processes.
func benignScenarios(seed uint64) (names []string, scs []cchunter.Scenario) {
	for i, pair := range experiments.Figure14Pairs() {
		names = append(names, pair[0]+"+"+pair[1])
		scs = append(scs, cchunter.Scenario{
			Channel:        cchunter.ChannelNone,
			Workloads:      []string{pair[0], pair[1]},
			DurationQuanta: 64,
			QuantumCycles:  2_500_000,
			Seed:           seed + uint64(i),
		})
	}
	return names, scs
}

// setupBenign builds one op per benign pair.
func setupBenign(seed uint64, pinned map[string]verdict) ([]op, error) {
	names, scs := benignScenarios(seed)
	var ops []op
	for i, sc := range scs {
		ops = append(ops, benignOp(names[i], sc, pinned))
	}
	return ops, nil
}

// benignOp times one Scenario.Run of a benign pair. On the pinned seed
// its verdict must match the pinned one; on any other seed a detection
// is a false alarm and fails the op.
func benignOp(name string, sc cchunter.Scenario, pinned map[string]verdict) op {
	return op{name: name, run: func(tr *tracer) func() opResult {
		sc := sc
		sc.Metrics = tr.registry()
		end := tr.span("cchunter.run")
		res, err := sc.Run()
		end()
		return func() opResult {
			r := opResult{attempted: 1}
			switch {
			case err != nil:
				r.reason = err.Error()
			case res.Report.Failed():
				r.reason = "degraded report: " + res.Report.Failure
			default:
				v := verdictOf(name, res)
				r.verdict, r.events = &v, reportEvents(res.Report)
				if want, ok := pinned[name]; ok {
					r.reason = want.mismatch(v)
				} else if pinned != nil {
					r.reason = "no pinned verdict"
				} else if res.Report.Detected {
					r.reason = "false alarm on a benign pair"
				}
			}
			if r.reason != "" {
				r.failed, r.reason = 1, name+": "+r.reason
			}
			return r
		}
	}}
}

// replayCapture is one scenario the replay workload captures at set-up.
// flight is the recorder capacity, about twice the run's event count,
// so the flight is complete; set-up fails if it is not.
type replayCapture struct {
	name   string
	sc     cchunter.Scenario
	flight int
	sweep  bool // also sweep its conflict train with the Figure 11 analysis
}

func replayCaptures(seed uint64) []replayCapture {
	msg := balancedMessage(64, seed)
	caps := []replayCapture{
		{"fig12/cache", cchunter.Scenario{Channel: cchunter.ChannelSharedCache, BandwidthBPS: 1000,
			Message: msg, CacheSets: 512, QuantumCycles: 25_000_000, Seed: seed}, 1 << 19, true},
		{"fig12/divider", cchunter.Scenario{Channel: cchunter.ChannelIntegerDivider, BandwidthBPS: 2500,
			Message: msg, QuantumCycles: 100_000_000, DurationQuanta: 2, Seed: seed}, 1 << 21, false},
		{"fig12/bus", cchunter.Scenario{Channel: cchunter.ChannelMemoryBus, BandwidthBPS: 2500,
			Message: msg, QuantumCycles: 100_000_000, DurationQuanta: 2, Seed: seed}, 1 << 16, false},
		{"fig11/cotenant-cache", cchunter.Scenario{Channel: cchunter.ChannelSharedCache, BandwidthBPS: 1,
			Message: cchunter.RandomMessage(4, seed), CacheSets: 256, CacheRounds: 6,
			QuantumCycles: 25_000_000, Workloads: []string{"tenant", "tenant"}, Seed: seed}, 1 << 21, true},
	}
	names, scs := benignScenarios(seed)
	for i, sc := range scs {
		caps = append(caps, replayCapture{"benign/" + names[i], sc, 1 << 18, false})
	}
	return caps
}

// balancedMessage returns n random bits, exactly half of them ones. A
// Figure 12 run's event count grows with its message's ones (the
// divider flight holds 0.93M events at seed 1 and 1.17M at seed 3), so
// fixing their number keeps the replay ops' work the same on every
// seed.
func balancedMessage(n int, seed uint64) []int {
	msg := make([]int, n)
	for i := 0; i < n/2; i++ {
		msg[i] = 1
	}
	rand.New(rand.NewPCG(seed, 0)).Shuffle(n, func(i, j int) { msg[i], msg[j] = msg[j], msg[i] })
	return msg
}

// figure11Config is the oscillation configuration of Figure 11's
// reduced-window analysis.
func figure11Config(contexts int) core.OscillationConfig {
	cfg := core.DefaultOscillationConfig(contexts)
	cfg.RawPairSeries = true
	cfg.MinHarmonics = 1
	cfg.PeakThreshold = 0.45
	return cfg
}

// sweepFractions are Figure 11's observation windows as fractions of
// the quantum.
var sweepFractions = []float64{1, 0.75, 0.5, 0.25}

// sweep runs the Figure 11 window sweep over a train.
func sweep(train *cchunter.Train, quantum, end uint64, cfg core.OscillationConfig) [][]core.OscillationAnalysis {
	out := make([][]core.OscillationAnalysis, 0, len(sweepFractions))
	for _, frac := range sweepFractions {
		window := uint64(float64(quantum) * frac)
		out = append(out, core.AnalyzeOscillationWindows(train, 0, end, window, cfg))
	}
	return out
}

// setupReplay runs every capture scenario with a flight recorder large
// enough to hold its whole run, keeps each live report's bytes, and
// builds one ReplayFlight op per flight plus one window-sweep op per
// cache-channel conflict train. A replay must reproduce its live report
// byte for byte; a sweep must reproduce the one run at set-up.
func setupReplay(seed uint64, _ map[string]verdict) ([]op, error) {
	var replays, sweeps []op
	for _, c := range replayCaptures(seed) {
		sc := c.sc
		sc.FlightEvents = c.flight
		res, err := sc.Run()
		if err != nil {
			return nil, fmt.Errorf("capturing %s: %w", c.name, err)
		}
		if res.Report.Failed() {
			return nil, fmt.Errorf("capturing %s: degraded report: %s", c.name, res.Report.Failure)
		}
		if res.Flight == nil || res.Flight.Truncated {
			return nil, fmt.Errorf("capturing %s: flight incomplete", c.name)
		}
		live, err := reportBytes(res.Report)
		if err != nil {
			return nil, fmt.Errorf("capturing %s: %w", c.name, err)
		}
		replays = append(replays, replayOp("replay/"+c.name, *res.Flight, live))
		if c.sweep {
			cfg := figure11Config(res.Contexts)
			want := sweepDigest(sweep(res.ConflictTrain, res.QuantumCycles, res.EndCycle, cfg))
			sweeps = append(sweeps, sweepOp("sweep/"+c.name, res.ConflictTrain, res.QuantumCycles, res.EndCycle, cfg, want))
		}
		// Drop the run's simulator and recorder ring before the next
		// capture, so set-up memory stays at one run's worth.
		res = nil
		runtime.GC()
	}
	return append(replays, sweeps...), nil
}

func replayOp(name string, f cchunter.Flight, live []byte) op {
	return op{name: name, run: func(tr *tracer) func() opResult {
		end := tr.span("recorder.replay")
		rep, err := cchunter.ReplayFlight(f)
		end()
		return func() opResult {
			r := opResult{attempted: 1, events: uint64(len(f.Events))}
			switch {
			case err != nil:
				r.reason = err.Error()
			case rep.Failed():
				r.reason = "degraded report: " + rep.Failure
			default:
				got, err := reportBytes(rep)
				if err != nil {
					r.reason = err.Error()
				} else if !bytes.Equal(got, live) {
					r.reason = "replayed report differs from the live report"
				}
			}
			if r.reason != "" {
				r.failed, r.reason = 1, name+": "+r.reason
			}
			return r
		}
	}}
}

func sweepOp(name string, train *cchunter.Train, quantum, end uint64, cfg core.OscillationConfig, want uint64) op {
	return op{name: name, run: func(tr *tracer) func() opResult {
		done := tr.span("core.sweep")
		got := sweep(train, quantum, end, cfg)
		done()
		return func() opResult {
			r := opResult{attempted: 1}
			for _, windows := range got {
				for _, w := range windows {
					r.events += uint64(w.Events)
				}
			}
			if sweepDigest(got) != want {
				r.failed, r.reason = 1, name+": window sweep differs from the set-up sweep"
			}
			return r
		}
	}}
}

// sweepDigest hashes every field of a sweep's analyses, floats by
// their bits, so two sweeps compare equal only when identical.
func sweepDigest(sweeps [][]core.OscillationAnalysis) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, windows := range sweeps {
		put(uint64(len(windows)))
		for _, w := range windows {
			put(uint64(w.Pair[0])<<8 | uint64(w.Pair[1]))
			put(uint64(w.FundamentalLag))
			put(math.Float64bits(w.PeakValue))
			put(uint64(w.Harmonics))
			put(uint64(w.Events))
			if w.Detected {
				put(1)
			} else {
				put(0)
			}
			put(uint64(len(w.Autocorrelogram)))
			for _, r := range w.Autocorrelogram {
				put(math.Float64bits(r))
			}
			put(uint64(len(w.Peaks)))
			for _, pk := range w.Peaks {
				put(uint64(pk.Lag))
				put(math.Float64bits(pk.Value))
			}
		}
	}
	return h.Sum64()
}
