package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		values []float64
		p      float64
		want   float64
	}{
		{ten, 0.5, 5},
		{ten, 0.9, 9},
		{ten, 0.91, 10},
		{ten, 1, 10},
		{ten, 0, 1},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2}, // even count: the lower middle
		{[]float64{7}, 0.9, 7},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.values, c.p); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.values, c.p, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Errorf("quantile sorted its input in place")
	}
}

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"cchunter/internal/sim.(*System).Run":                                  "sim",
		"cchunter/internal/auditor.(*Auditor).Finish.func1":                    "auditor",
		"cchunter/internal/stream.NewIngest.func1":                             layerOther,
		"cchunter/internal/stats.typedPools[go.shape.float64].get":             "stats",
		"cchunter/internal/pool.Get[go.shape.*cchunter/internal/stats.Buffer]": layerOther,
		"cchunter/internal/stats.(*Pool[go.shape.struct { A int }]).Put":       "stats",
		"cchunter.Scenario.Run":                                                "cchunter",
		"cchunter.(*slicedAudit).finish.func2":                                 "cchunter",
		"cchunter/internal/runner.Supervise.func1":                             layerOther,
		"main.measure":                layerBench,
		"main.replayOp.func1":         layerBench,
		"runtime/pprof.profileWriter": layerBench,
		"runtime.gcBgMarkWorker":      layerGC,
		"runtime.scanobject":          layerGC,
		"runtime.memmove":             "",
		"runtime.mallocgc":            "",
		"sort.Float64s":               "",
		"encoding/json.Marshal":       "",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeStacks(t *testing.T) {
	for _, c := range []struct {
		stack []string // innermost first
		want  string
	}{
		// A standard-library helper is charged to its repo caller.
		{[]string{"runtime.memmove", "cchunter/internal/cache.(*Cache).Access", "cchunter/internal/sim.(*System).Run"}, "cache"},
		// An inlined callee comes first in the expanded stack and wins.
		{[]string{"cchunter/internal/stats.fftRadix2", "cchunter/internal/core.AnalyzeOscillationWindows", "main.sweep"}, "stats"},
		// A mark assist inside an allocation is garbage collection.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "cchunter/internal/stats.Autocorrelogram"}, layerGC},
		// A plain allocation belongs to the allocating module.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "cchunter/internal/auditor.(*Auditor).OnEvents"}, "auditor"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, layerRuntime},
		{[]string{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal", "main.sweepDigest"}, layerBench},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, layerUnclaimed},
		{nil, layerUnclaimed},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// raceBuild is set when the tests run under the race detector.
var raceBuild bool

// TestProfileAttribution profiles one real benign op and checks that
// the decoded profile maps onto the simulator's modules with no more
// unattributed samples than the traced run allows.
func TestProfileAttribution(t *testing.T) {
	if raceBuild {
		t.Skip("race-instrumented code runs in C frames the CPU profiler cannot unwind into Go stacks")
	}
	ops, err := setupBenign(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		runOp(o, nil)
	}
	attr, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	if attr.total < 20 {
		t.Fatalf("only %d samples", attr.total)
	}
	for _, l := range []string{"sim", "cache", "conflict"} {
		if attr.samples[l] == 0 {
			t.Errorf("no samples attributed to %s: %v", l, attr.samples)
		}
	}
	if u := attr.share(layerUnclaimed); u > maxUnattributed {
		t.Errorf("unattributed share %.3f > %.2f: %v", u, maxUnattributed, attr.samples)
	}
}

// TestHeapSampler drives the sampler from the test goroutine while its
// own goroutine samples, and requires close to return after at least
// one reading.
func TestHeapSampler(t *testing.T) {
	runtime.GC() // publish a live-heap figure
	h := startHeapSampler()
	for i := 0; i < 3; i++ {
		start := time.Now()
		h.opStarted()
		sink = make([]byte, 1<<20)
		runtime.GC()
		h.opEnded(start, time.Now())
	}
	h.close()
	if h.peakMB() <= 0 {
		t.Errorf("peak live heap %g MB, want > 0", h.peakMB())
	}
	_ = h.growthMB()
}

var sink []byte

func TestVerdictTolerance(t *testing.T) {
	base := verdict{Op: "x", Detected: true, Detectors: []string{"bus-lock"}, Flags: []bool{true},
		BitErrors: 0, EndCycle: 100, LR: []float64{0.95}, Peak: 0.7}
	near := base
	near.LR = []float64{0.95 * (1 + 5e-7)}
	near.Peak = 0.7 * (1 - 5e-7)
	if m := base.mismatch(near); m != "" {
		t.Errorf("within tolerance reported as %q", m)
	}
	far := base
	far.LR = []float64{0.95 * (1 + 5e-6)}
	if base.mismatch(far) == "" {
		t.Errorf("LR 5e-6 off not reported")
	}
	flipped := base
	flipped.BitErrors = 1
	if base.mismatch(flipped) == "" {
		t.Errorf("bit-error change not reported")
	}
}

// TestDigestStable runs the benign workload twice off the pinned seed
// and requires identical verdicts and digests.
func TestDigestStable(t *testing.T) {
	w, _ := findWorkload("benign")
	verdicts := func() []verdict {
		ops, err := w.setup(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		var vs []verdict
		for _, o := range ops {
			if _, r := runOp(o, nil); r.verdict != nil {
				vs = append(vs, *r.verdict)
			}
		}
		return vs
	}
	a, b := verdicts(), verdicts()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("verdicts differ between two runs:\n%v\n%v", a, b)
	}
	if digest(a) != digest(b) {
		t.Errorf("digest %s then %s", digest(a), digest(b))
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkNames requires the metrics to be exactly the declared ones, with
// the declared units.
func checkNames(t *testing.T, label string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	t.Logf("%s metrics: %s", label, strings.Join(names, " "))
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", label, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: metric %s in %s, declared %s", label, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// requires no failed op and exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if raceBuild {
		t.Skip("race-instrumented runs take minutes and their profiles cannot be attributed; TestHeapSampler covers the traced run's goroutine")
	}
	spec := readSpec(t)
	for _, w := range workloads {
		var out bytes.Buffer
		res, err := untracedRun(w, pinnedSeed, 0.001, &out)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: failed_frac = %d/%d: %v", w.name, res.Failed, res.Attempted, res.reasons)
		}
		checkNames(t, w.name, res.Metrics, spec.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.name, name, m.Value)
			}
		}

		res, err = tracedRun(w, pinnedSeed, 0.002, "", &out)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s traced: failed_frac = %d/%d: %v", w.name, res.Failed, res.Attempted, res.reasons)
		}
		checkNames(t, w.name+" traced", res.Metrics, spec.PerLayer)
	}
}

// TestSpecMatchesCode checks BENCHMARK.json's workloads against the
// code and layers.json's metric list against its per-layer metrics.
func TestSpecMatchesCode(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, "|"); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, code has %s", got, workloadNames())
	}

	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		HeldOutSeed uint64 `json:"held_out_seed"`
		Metrics     []struct {
			Name, Source string
			Moves        [][2]string
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.HeldOutSeed == 0 || doc.HeldOutSeed == pinnedSeed {
		t.Errorf("held-out seed %d must be set and differ from the pinned seed", doc.HeldOutSeed)
	}
	endToEnd := map[string]bool{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = true
	}
	workloadSet := map[string]bool{}
	for _, n := range names {
		workloadSet[n] = true
	}
	documented := map[string]bool{}
	for _, m := range doc.Metrics {
		documented[m.Name] = true
		if m.Source == "" {
			t.Errorf("layers.json: %s has no source", m.Name)
		}
		for _, mv := range m.Moves {
			if !endToEnd[mv[0]] || !workloadSet[mv[1]] {
				t.Errorf("layers.json: %s moves unknown (%s, %s)", m.Name, mv[0], mv[1])
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !documented[m.Name] {
			t.Errorf("per-layer metric %s is not in layers.json", m.Name)
		}
		delete(documented, m.Name)
	}
	for n := range documented {
		t.Errorf("layers.json documents %s, which BENCHMARK.json does not declare", n)
	}
}
