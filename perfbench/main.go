// Command perfbench is the repository's benchmark. It drives the
// library from outside, through its public entry points, on one of
// two workloads, and prints every end-to-end metric (or, traced, every
// per-layer metric) with its unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload benign --seed 1 --seconds 30 --trace 0
//
// A run sets up its inputs from the seed several times (reporting the
// median set-up time), then repeats passes over the workload's op set
// until the time is spent. Every op's output is checked; a failed
// check counts against failed_frac and makes "correct" false.
//
// Times are the process's CPU time (see cpuSeconds), not wall time: on
// a shared virtual machine, time the hypervisor gives to other guests
// moves a serial op's wall time by a third from run to run, and its CPU
// time by a few percent.
//
// With --trace 1 the run measures half its time untraced and half
// traced — spans around the calls into the library, a metrics registry
// per op, a CPU profile attributed to the repo's modules, allocation
// deltas and a live-heap sampler — and prints the per-layer metrics.
// layers.json lists each of them with its source and the end-to-end
// metric it should move.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// maxUnattributed is the largest share of profile samples the traced
// run lets go unattributed before it fails.
const maxUnattributed = 0.05

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: benign or replay")
	seed := fl.Uint64("seed", pinnedSeed, "workload seed")
	seconds := fl.Float64("seconds", 10, "measuring time in seconds")
	traced := fl.Int("trace", 0, "1 = traced run printing per-layer metrics")
	pin := fl.Bool("pin", false, "rewrite perfbench/testdata/verdicts.json from one pass at the pinned seed")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *pin {
		if err := writePins(filepath.Join("perfbench", "testdata", "verdicts.json")); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Fprintln(stdout, stamp())

	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, *seed, *seconds, ".bench_build", stdout)
	} else {
		res, err = untracedRun(w, *seed, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, reason := range res.reasons {
		fmt.Fprintln(stdout, "FAILED", reason)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	reasons []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measurement accumulates one phase of a run.
type measurement struct {
	setup     []float64 // CPU seconds per set-up
	passes    []float64 // CPU seconds of timed calls per pass
	wall      []float64 // wall seconds of timed calls per pass
	latency   []float64 // CPU milliseconds per op
	busy      float64   // CPU seconds of timed calls in all passes
	events    uint64
	attempted int
	failed    int
	reasons   []string  // the first few failures
	verdicts  []verdict // the first pass's scenario verdicts
}

// maxReasons bounds how many failure reasons a run prints.
const maxReasons = 5

// setUp builds the workload's op sets reps times, each time followed by
// one untimed warm-up op, and records each set-up's duration. Each run
// draws w.inputs input sets from its seed (see inputSeeds).
func setUp(w workload, seed uint64, reps int, m *measurement) ([][]op, error) {
	var sets [][]op
	for i := 0; i < reps; i++ {
		sets = nil
		runtime.GC()
		start := cpuSeconds()
		for _, s := range inputSeeds(seed, w.inputs) {
			var pinned map[string]verdict
			if w.pinned {
				var err error
				if pinned, err = pinnedVerdicts(w.name, s); err != nil {
					return nil, err
				}
			}
			ops, err := w.setup(s, pinned)
			if err != nil {
				return nil, fmt.Errorf("setting up %s: %w", w.name, err)
			}
			if len(ops) == 0 {
				return nil, fmt.Errorf("setting up %s: no ops", w.name)
			}
			sets = append(sets, ops)
		}
		runOp(sets[0][0], nil)
		m.setup = append(m.setup, cpuSeconds()-start)
	}
	runtime.GC()
	return sets, nil
}

// inputSeeds returns n input seeds for a run: the run's seed first,
// then seeds mixed from it, splitmix64 style. Passes cycle through the
// input sets, so a run's medians average over several inputs and two
// seeds' runs differ less than two single inputs would.
func inputSeeds(seed uint64, n int) []uint64 {
	out := []uint64{seed}
	for i := 1; i < n; i++ {
		z := seed + 0x9e3779b97f4a7c15*uint64(i)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out = append(out, z^(z>>31))
	}
	return out
}

// measure runs whole passes, cycling through the input sets from the
// first, until another pass of the average length would overrun
// seconds; it always runs at least one.
func measure(sets [][]op, seconds float64, tr *tracer, m *measurement) {
	start := time.Now()
	for pass := 0; ; pass++ {
		var cpu, wall float64
		for _, o := range sets[pass%len(sets)] {
			t, r := runOp(o, tr)
			cpu += t.cpu
			wall += t.wall
			m.latency = append(m.latency, t.cpu*1000)
			m.events += r.events
			m.attempted += r.attempted
			m.failed += r.failed
			if r.failed > 0 && len(m.reasons) < maxReasons {
				m.reasons = append(m.reasons, r.reason)
			}
			if pass == 0 && r.verdict != nil {
				m.verdicts = append(m.verdicts, *r.verdict)
			}
		}
		m.passes = append(m.passes, cpu)
		m.wall = append(m.wall, wall)
		m.busy += cpu
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(len(m.passes)) > seconds {
			return
		}
	}
}

// opTime is the time one op's timed call took, in seconds.
type opTime struct{ cpu, wall float64 }

// runOp runs one op and returns the time of its timed call and its
// checked outcome.
func runOp(o op, tr *tracer) (opTime, opResult) {
	tr.beginOp()
	end := tr.span(o.name)
	if o.prepare != nil {
		if err := o.prepare(tr); err != nil {
			end()
			tr.endOp()
			return opTime{}, opResult{attempted: 1, failed: 1, reason: o.name + ": " + err.Error()}
		}
	}
	cpu, start := cpuSeconds(), time.Now()
	check := o.run(tr)
	t := opTime{cpu: cpuSeconds() - cpu, wall: time.Since(start).Seconds()}
	end()
	tr.endOp()
	return t, check()
}

// cpuSeconds returns the CPU time all of the process's threads have
// used, garbage collection included. Linux leaves out of it the time a
// hypervisor runs other guests on this machine's CPUs (steal).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w workload, seed uint64, seconds float64, stdout io.Writer) (result, error) {
	var m measurement
	sets, err := setUp(w, seed, w.setupReps, &m)
	if err != nil {
		return result{}, err
	}
	stealBefore := cpuStealSeconds()
	measure(sets, seconds, nil, &m)
	steal := cpuStealSeconds() - stealBefore
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	printVerdicts(stdout, seed, m.verdicts)
	metrics := map[string]metric{
		"pass_cpu_s":    {median(m.passes), "s"},
		"op_cpu_ms_p50": {quantile(m.latency, 0.5), "ms"},
		"op_cpu_ms_p90": {quantile(m.latency, 0.9), "ms"},
		"peak_rss_mb":   {rss, "MB"},
		"setup_s":       {median(m.setup), "s"},
	}
	printMetrics(stdout, metrics)
	// Printed but not gated: a pass's wall time moves with the host's
	// steal time, the event count behind events_per_s moves with the
	// seed's message bits, and failed_frac is zero on a healthy run, so
	// it cannot carry a relative bound. failed and attempted are in the
	// JSON line.
	printMetrics(stdout, map[string]metric{
		"pass_wall_s":  {median(m.wall), "s"},
		"events_per_s": {ratio(float64(m.events), m.busy), "events/s"},
		"failed_frac":  {ratio(float64(m.failed), float64(m.attempted)), "ratio"},
	})
	fmt.Fprintf(stdout, "ops=%d passes=%d setups=%d attempted=%d failed=%d host_cpu_steal_s=%.2f\n",
		len(m.latency), len(m.passes), len(m.setup), m.attempted, m.failed, steal)
	return result{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: metrics, reasons: m.reasons,
	}, nil
}

// tracedRun measures half of seconds untraced and half traced, and
// reports the per-layer metrics of the traced half. It writes the spans
// into spanDir unless that is empty.
func tracedRun(w workload, seed uint64, seconds float64, spanDir string, stdout io.Writer) (result, error) {
	var plain, traced measurement
	sets, err := setUp(w, seed, 1, &plain)
	if err != nil {
		return result{}, err
	}
	measure(sets, seconds/2, nil, &plain)
	runtime.GC()

	tr := newTracer()
	tr.heap = startHeapSampler()
	prof, err := startCPUProfile()
	if err != nil {
		tr.heap.close()
		return result{}, err
	}
	start := cpuSeconds()
	measure(sets, seconds/2, tr, &traced)
	cpu := cpuSeconds() - start
	attr, err := prof.stop()
	tr.heap.close()
	if err != nil {
		return result{}, err
	}
	if spanDir != "" {
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return result{}, err
		}
		if err := tr.writeSpans(filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
	}

	metrics := layerMetrics(tr, attr, cpu, median(traced.passes), median(plain.passes))
	printMetrics(stdout, metrics)
	fmt.Fprintf(stdout, "profile samples=%d traced ops=%d untraced passes=%d traced passes=%d\n",
		attr.total, tr.ops, len(plain.passes), len(traced.passes))
	if u := metrics["unattributed_frac"].Value; u > maxUnattributed {
		return result{}, fmt.Errorf("attribution check: unattributed_frac %.4f exceeds %.2f", u, maxUnattributed)
	}
	failed := plain.failed + traced.failed
	return result{
		Correct:   failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   metrics,
		reasons:   append(plain.reasons, traced.reasons...),
	}, nil
}

// simLayers are the modules whose self time sim.ns_per_op charges to
// each simulated op: the engine, memory hierarchy, units and steppers.
var simLayers = []string{"sim", "cache", "bus", "divider", "conflict", "bloom", "workload"}

// layerMetrics derives the per-layer metrics. A layer's self time is
// its share of the CPU profile's samples times the traced CPU time, so
// the self times and unattributed_frac·cpu add up to the CPU time.
func layerMetrics(tr *tracer, attr attribution, cpu, tracedPass, plainPass float64) map[string]metric {
	out := map[string]metric{}
	sec := func(name string, v float64) { out[name] = metric{v, "s"} }
	count := func(name string, v float64) { out[name] = metric{v, "count"} }
	frac := func(name string, v float64) { out[name] = metric{v, "ratio"} }
	self := func(layer string) float64 { return cpu * attr.share(layer) }

	for _, l := range layerModules {
		sec(l+".self_s", self(l))
	}
	sec("other.self_s", self(layerOther))
	sec("bench.self_s", self(layerBench))
	sec("runtime.gc_self_s", self(layerGC))
	sec("runtime.other_self_s", self(layerRuntime))
	frac("unattributed_frac", attr.share(layerUnclaimed))
	sec("traced_cpu_s", cpu)
	frac("trace_overhead_frac", ratio(tracedPass, plainPass)-1)

	c := func(name string) float64 { return float64(tr.counters[name]) }
	g := func(name string) float64 { return float64(tr.gauges[name]) }
	t := func(name string) float64 { return tr.timers[name] / 1e9 }

	simOps := c("sim.ops")
	var simSelf float64
	for _, l := range simLayers {
		simSelf += self(l)
	}
	count("sim.ops", simOps)
	sec("sim.run_s", t("scenario.sim_ns"))
	out["sim.ns_per_op"] = metric{ratio(simSelf*1e9, simOps), "ns"}

	count("trace.batch.events", c("trace.batch.events"))
	count("trace.batch.flushes", c("trace.batch.flushes"))
	count("trace.events_per_flush", ratio(c("trace.batch.events"), c("trace.batch.flushes")))

	rec, dup := c("auditor.conflicts.recorded"), c("auditor.conflicts.deduped")
	count("auditor.events", c("auditor.events"))
	count("auditor.conflicts.recorded", rec)
	count("auditor.conflicts.deduped", dup)
	frac("auditor.dedup_ratio", ratio(dup, rec+dup))

	sec("core.analyze_s", t("scenario.analyze_ns")+tr.spanSeconds("core.sweep"))
	sec("core.burst_s", t("detect.burst_ns"))
	sec("core.oscillation_s", t("detect.oscillation_ns"))
	count("core.windows", c("detect.windows"))

	fft, naive := g("stats.autocorr.fft"), g("stats.autocorr.naive")
	count("stats.autocorr.fft", fft)
	count("stats.autocorr.naive", naive)
	frac("stats.fft_share", ratio(fft, fft+naive))

	sec("recorder.replay_s", tr.spanSeconds("recorder.replay"))
	sec("cchunter.run_s", tr.spanSeconds("cchunter.run"))

	ops := float64(tr.ops)
	out["runtime.alloc_mb"] = metric{ratio(float64(tr.allocBytes)/(1<<20), ops), "MB"}
	count("runtime.mallocs", ratio(float64(tr.mallocs), ops))
	out["runtime.heap_live_peak_mb"] = metric{tr.heap.peakMB(), "MB"}
	out["runtime.heap_live_growth_mb"] = metric{tr.heap.growthMB(), "MB"}
	return out
}

func printMetrics(w io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %-8s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

func printVerdicts(w io.Writer, seed uint64, vs []verdict) {
	if len(vs) > 0 {
		fmt.Fprintf(w, "verdict digest %s over the %d ops of input seed %d\n", digest(vs), len(vs), seed)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM in /proc/self/status")
}

// cpuStealSeconds reads the machine's cumulative CPU steal time, the
// time a hypervisor ran something else on this machine's CPUs. A run
// with much steal was measured on a contended host. It returns 0 where
// /proc/stat is unreadable.
func cpuStealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	// cpu  user nice system idle iowait irq softirq steal ...
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// stamp describes the environment a report was measured in: Go
// version, CPUs, GOMAXPROCS, the git commit when the build knows it,
// and a hash of the repository's Go sources, which identifies the code
// also where no git metadata exists.
func stamp() string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("env go=%s nproc=%d gomaxprocs=%d commit=%s source=%s",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit, sourceHash("."))
}

// sourceHash hashes every .go and go.mod file under root, skipping
// build output and VCS directories.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// writePins runs one pass of each pinned workload at pinnedSeed and
// writes their verdicts to path.
func writePins(path string) error {
	all := map[string][]verdict{}
	for _, w := range workloads {
		if !w.pinned {
			continue
		}
		ops, err := w.setup(pinnedSeed, nil)
		if err != nil {
			return err
		}
		for _, o := range ops {
			_, r := runOp(o, nil)
			if r.failed > 0 || r.verdict == nil {
				return fmt.Errorf("not pinning a failing run: %s", r.reason)
			}
			all[w.name] = append(all[w.name], *r.verdict)
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
