package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, so one slow start does not move it.
const setupRepeats = 5

// repeatSetup runs setup n times, tearing down all but the last result,
// and returns the last result with the median set-up time in seconds.
func repeatSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return last, 0, err
		}
		if i < n-1 {
			teardown(v)
		}
		last = v
	}
	return last, median(times), nil
}

// latencies collects operation latencies with their start times.
type latencies struct {
	at []time.Time
	ms []float64
}

func (l *latencies) add(at time.Time, ms float64) {
	l.at = append(l.at, at)
	l.ms = append(l.ms, ms)
}

const (
	// latencyWindow groups operations by start time. Host speed on a
	// shared two-core VM drifts over seconds; the median of per-window
	// percentiles does not follow one slow stretch the way the percentile
	// of a whole run does.
	latencyWindow = 2 * time.Second
	// minWindowOps is the fewest operations a window needs (ten beyond
	// its 90th percentile).
	minWindowOps = 100
)

// percentile returns the median over full windows of each window's
// q-quantile, or the q-quantile of all operations when no window holds
// minWindowOps of them (as with the figures workload's long calls).
func (l *latencies) percentile(q float64) float64 {
	if len(l.ms) == 0 {
		return 0
	}
	var start time.Time
	for _, t := range l.at {
		if start.IsZero() || t.Before(start) {
			start = t
		}
	}
	wins := map[int][]float64{}
	for i, t := range l.at {
		w := int(t.Sub(start) / latencyWindow)
		wins[w] = append(wins[w], l.ms[i])
	}
	var per []float64
	for _, xs := range wins {
		if len(xs) >= minWindowOps {
			per = append(per, quantile(xs, q))
		}
	}
	if len(per) == 0 {
		return quantile(append([]float64(nil), l.ms...), q)
	}
	return median(per)
}

// phase measures process-wide costs over a timed phase: wall and CPU
// time, Go allocations and GC, and the heap sampled every few
// milliseconds without stopping the world.
type phase struct {
	start time.Time
	cpu0  time.Duration
	mem0  runtime.MemStats
	stop  chan struct{}
	done  chan struct{}
	// peaks holds the heap peak of each heapWindow of the phase.
	peaks []float64
}

type phaseStats struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	heapPeakMB     float64
}

const (
	heapMetric = "/memory/classes/heap/objects:bytes"
	// heapWindow is the span of one heap peak; the phase reports the
	// median window peak, which one late GC cycle does not move.
	heapWindow = time.Second
)

func startPhase() *phase {
	runtime.GC()
	p := &phase{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&p.mem0)
	p.cpu0 = cpuTime()
	p.start = time.Now()
	go p.sampleHeap()
	return p
}

func (p *phase) sampleHeap() {
	defer close(p.done)
	s := []rtmetrics.Sample{{Name: heapMetric}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		rtmetrics.Read(s)
		w := int(time.Since(p.start) / heapWindow)
		for len(p.peaks) <= w {
			p.peaks = append(p.peaks, 0)
		}
		p.peaks[w] = max(p.peaks[w], float64(s[0].Value.Uint64())/(1<<20))
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

func (p *phase) end() phaseStats {
	wall := time.Since(p.start)
	cpu := cpuTime() - p.cpu0
	close(p.stop)
	<-p.done
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return phaseStats{
		wall: wall, cpu: cpu,
		mallocs:    m.Mallocs - p.mem0.Mallocs,
		bytes:      m.TotalAlloc - p.mem0.TotalAlloc,
		gcCycles:   m.NumGC - p.mem0.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs - p.mem0.PauseTotalNs),
		heapPeakMB: median(p.peaks),
	}
}

// common fills the metrics every workload reports from a phase: the
// end-to-end heap peak and CPU per operation, and the Go runtime layer.
func (s phaseStats) common(ops int, e2e, layer metrics) {
	e2e["heap_peak_mb"] = s.heapPeakMB
	e2e["cpu_ms_per_op"] = ratio(ms(s.cpu), float64(ops))
	layer["go.gc_cycles"] = float64(s.gcCycles)
	layer["go.gc_pause_ms"] = ms(s.gcPause)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one request share Req; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the log's origin.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	nextID int64
	spans  []span
	// ops is the number of operations the spans cover, the divisor of
	// the per-operation self times.
	ops int64
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// reserve returns a fresh span id, so that a parent's id can be handed to
// children recorded before the parent ends.
func (l *spanLog) reserve() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

// record stores a span under a reserved id (0 reserves one) and returns it.
func (l *spanLog) record(id, parent, req int64, name string, start, end time.Time) int64 {
	if id == 0 {
		id = l.reserve()
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin))})
	l.mu.Unlock()
	return id
}

// layerOf maps a span name "layer.step" to its layer.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time in nanoseconds: each span's
// duration minus the part of it that its child spans cover.
func (l *spanLog) selfTimes() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range l.spans {
		out[layerOf(s.Name)] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// selfMetrics adds self_ms.<layer>, the mean self time per operation.
func (l *spanLog) selfMetrics(layer metrics) {
	for name, ns := range l.selfTimes() {
		layer["self_ms."+name] = ratio(float64(ns)/1e6, float64(l.ops))
	}
}

func (l *spanLog) printSelfTimes(w io.Writer) {
	self := l.selfTimes()
	var total int64
	names := make([]string, 0, len(self))
	for n, ns := range self {
		names = append(names, n)
		total += ns
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# self time over %d operations (%d spans)\n", l.ops, len(l.spans))
	fmt.Fprintf(w, "# %-10s %12s %12s %7s\n", "layer", "total_ms", "per_op_ms", "share")
	for _, n := range names {
		fmt.Fprintf(w, "# %-10s %12.3f %12.4f %6.1f%%\n", n, float64(self[n])/1e6,
			ratio(float64(self[n])/1e6, float64(l.ops)), 100*ratio(float64(self[n]), float64(total)))
	}
}

func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	b, err := json.Marshal(struct {
		Origin time.Time `json:"origin"`
		Ops    int64     `json:"ops"`
		Spans  []span    `json:"spans"`
	}{l.origin, l.ops, l.spans})
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
