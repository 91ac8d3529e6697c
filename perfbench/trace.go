package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"cchunter"
)

// tracer records the traced run's per-layer evidence: spans around the
// benchmark's calls into public entry points, a fresh metrics registry
// per op whose counters and timers are summed, per-op allocation
// deltas, and a live-heap sampler. A nil *tracer is tracing off: every
// method is then a no-op that reads no clock.
type tracer struct {
	spans []span
	open  []int // indices of open spans, innermost last

	reg      *cchunter.MetricsRegistry // the current op's registry
	counters map[string]uint64
	gauges   map[string]int64
	timers   map[string]float64 // summed nanoseconds

	ops        int
	allocBytes uint64
	mallocs    uint64
	memBefore  runtime.MemStats
	opStart    time.Time

	heap *heapSampler
}

// span is one timed call, with the index of the span it ran inside
// (-1 for an op's root span).
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

var traceEpoch = time.Now()

func newTracer() *tracer {
	return &tracer{
		counters: map[string]uint64{},
		gauges:   map[string]int64{},
		timers:   map[string]float64{},
	}
}

// registry is the current op's metrics registry, or nil when tracing
// is off.
func (t *tracer) registry() *cchunter.MetricsRegistry {
	if t == nil {
		return nil
	}
	return t.reg
}

// span opens a span named name inside the innermost open span and
// returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.ops, Parent: parent, Start: time.Since(traceEpoch)})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = time.Since(traceEpoch)
		t.open = t.open[:len(t.open)-1]
	}
}

// beginOp gives the next op a fresh registry and snapshots the
// allocator before it runs.
func (t *tracer) beginOp() {
	if t == nil {
		return
	}
	t.reg = cchunter.NewMetricsRegistry()
	runtime.ReadMemStats(&t.memBefore)
	t.heap.opStarted()
	t.opStart = time.Now()
}

// endOp folds the finished op's registry and allocation deltas into
// the run's totals.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.heap.opEnded(t.opStart, time.Now())
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	t.allocBytes += after.TotalAlloc - t.memBefore.TotalAlloc
	t.mallocs += after.Mallocs - t.memBefore.Mallocs
	if snap := t.reg.Snapshot(); snap != nil {
		for k, v := range snap.Counters {
			t.counters[k] += v
		}
		for k, v := range snap.Gauges {
			t.gauges[k] += v
		}
		for k, h := range snap.Histograms {
			t.timers[k] += h.Sum
		}
	}
	t.reg = nil
	t.ops++
}

// spanSeconds sums the durations of every span named name.
func (t *tracer) spanSeconds(name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d.Seconds()
}

// writeSpans writes the recorded spans as JSON to path.
func (t *tracer) writeSpans(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapSampler reads the runtime's live-heap figure at a fixed interval
// on its own goroutine, so the peak inside a long op is visible, not
// only the heap between ops.
type heapSampler struct {
	mu      sync.Mutex
	peak    uint64
	inOp    bool
	samples []heapSample // samples taken while an op ran
	growth  []float64    // per op: peak of its second half − peak of its first half
	stop    chan struct{}
	done    sync.WaitGroup
}

type heapSample struct {
	at   time.Time
	live uint64
}

// heapSampleInterval is how often the sampler reads the live heap.
const heapSampleInterval = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleInterval)
		defer tick.Stop()
		for {
			metrics.Read(s)
			live := uint64(0)
			if s[0].Value.Kind() == metrics.KindUint64 {
				live = s[0].Value.Uint64()
			}
			h.mu.Lock()
			if live > h.peak {
				h.peak = live
			}
			if h.inOp {
				h.samples = append(h.samples, heapSample{at: time.Now(), live: live})
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// close stops the sampler and waits for its goroutine to exit.
func (h *heapSampler) close() {
	if h == nil {
		return
	}
	close(h.stop)
	h.done.Wait()
}

func (h *heapSampler) opStarted() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.inOp, h.samples = true, h.samples[:0]
	h.mu.Unlock()
}

// opEnded records the op's live-heap rise: the peak sampled in the
// second half of [start, end] minus the peak in the first half.
func (h *heapSampler) opEnded(start, end time.Time) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.inOp = false
	mid := start.Add(end.Sub(start) / 2)
	var first, second uint64
	for _, s := range h.samples {
		if s.at.Before(mid) {
			first = max(first, s.live)
		} else {
			second = max(second, s.live)
		}
	}
	if first > 0 && second > 0 {
		h.growth = append(h.growth, (float64(second)-float64(first))/(1<<20))
	}
}

// peakMB is the highest live heap sampled, in MiB.
func (h *heapSampler) peakMB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// growthMB is the median per-op live-heap rise, in MiB.
func (h *heapSampler) growthMB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.growth)
}

// cpuProfile runs the runtime CPU profiler into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends profiling and attributes every sample to its layer.
func (p *cpuProfile) stop() (attribution, error) {
	pprof.StopCPUProfile()
	prof, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return attribution{}, err
	}
	return attributeProfile(prof), nil
}
