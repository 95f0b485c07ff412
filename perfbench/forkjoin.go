package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/trace"
)

// forkjoinConfig is the closed-loop library workload: one caller issuing
// Pool.Run back to back, each Run one DAG shape from a seeded rotation.
type forkjoinConfig struct {
	Workers int `json:"workers"`
	// Scheduler records the pool's scheduler, which is always ADWS.
	Scheduler string `json:"scheduler"`
	// TreeDepth is the depth of the empty balanced binary tree.
	TreeDepth int `json:"tree_depth"`
	// SkewN elements are split 1:SkewAlpha with exact work hints down to
	// leaves of at most SkewLeaf elements, each summed by a plain loop.
	SkewN     int `json:"skew_n"`
	SkewAlpha int `json:"skew_alpha"`
	SkewLeaf  int `json:"skew_leaf"`
	// WarmupRuns of each shape run during set-up.
	WarmupRuns int `json:"warmup_runs"`
}

// traceCap is the per-worker tracer ring capacity of the traced run; it
// holds one Run's events, and the ring is cut after every Run.
const traceCap = 1 << 15

func defaultForkjoin() forkjoinConfig {
	return forkjoinConfig{
		Workers: 2, Scheduler: adws.ADWS.String(),
		TreeDepth: 12,
		SkewN:     1 << 16, SkewAlpha: 3, SkewLeaf: 24,
		WarmupRuns: 20,
	}
}

// shape is one fork-join DAG with its expected task count (the root task
// included) and result.
type shape struct {
	name  string
	tasks int64
	want  int64
	body  func(c *adws.Ctx) int64
}

func (fc forkjoinConfig) shapes() []shape {
	depth := fc.TreeDepth
	var want, nodes int64
	for i := 0; i < fc.SkewN; i++ {
		want += leafValue(i)
	}
	nodes = 1 + skewTasks(fc.SkewN, fc.SkewAlpha, fc.SkewLeaf)
	return []shape{
		{"tree", int64(1)<<(depth+1) - 1, int64(1) << depth,
			func(c *adws.Ctx) int64 { return tree(c, depth) }},
		{"skew", nodes, want,
			func(c *adws.Ctx) int64 { return skew(c, 0, fc.SkewN, fc.SkewAlpha, fc.SkewLeaf) }},
	}
}

// tree is an empty balanced binary fork-join tree; it returns its leaf
// count.
func tree(c *adws.Ctx, depth int) int64 {
	if depth == 0 {
		return 1
	}
	var a, b int64
	g := c.Group(adws.GroupHint{Work: 2})
	g.Spawn(1, func(c *adws.Ctx) { a = tree(c, depth-1) })
	g.Spawn(1, func(c *adws.Ctx) { b = tree(c, depth-1) })
	g.Wait()
	return a + b
}

// skewSplit is the left part of a 1:alpha split of n (at least 1).
func skewSplit(n, alpha int) int { return max(1, n/(1+alpha)) }

// skew sums leafValue over [lo, lo+n) by 1:alpha recursive splits with
// exact work hints, the random-recursive-map shape of the paper's Fig. 19.
func skew(c *adws.Ctx, lo, n, alpha, leaf int) int64 {
	if n <= leaf {
		var s int64
		for i := lo; i < lo+n; i++ {
			s += leafValue(i)
		}
		return s
	}
	l := skewSplit(n, alpha)
	var a, b int64
	g := c.Group(adws.GroupHint{Work: float64(n)})
	g.Spawn(float64(l), func(c *adws.Ctx) { a = skew(c, lo, l, alpha, leaf) })
	g.Spawn(float64(n-l), func(c *adws.Ctx) { b = skew(c, lo+l, n-l, alpha, leaf) })
	g.Wait()
	return a + b
}

func skewTasks(n, alpha, leaf int) int64 {
	if n <= leaf {
		return 0
	}
	l := skewSplit(n, alpha)
	return 2 + skewTasks(l, alpha, leaf) + skewTasks(n-l, alpha, leaf)
}

func leafValue(i int) int64 { return int64(i%7 + 1) }

func (fc forkjoinConfig) newPool(seed uint64, traced bool) (*adws.Pool, error) {
	opts := []adws.Option{adws.WithScheduler(adws.ADWS), adws.WithWorkers(fc.Workers), adws.WithSeed(seed)}
	if traced {
		opts = append(opts, adws.WithTracing(traceCap))
	}
	return adws.NewPool(opts...)
}

// fjRun is the outcome of one timed fork-join phase.
type fjRun struct {
	ops, runs, failed int64
	firstFailure      string
	lat               latencies            // per operation
	byShape           map[string][]float64 // ms per Run, by shape
	stats             adws.Stats           // delta over the phase
	triggers          int64
	ps                phaseStats
	sum               trace.Summary // traced phase only
	drops             int64
}

// timedRuns issues operations for d. One operation is one rotation of the
// shapes, in a seeded order, each shape one Run; every Run's task count
// and result are checked. A rotation rather than a random pick keeps the
// mix exact, so the latency of an operation is not bimodal. With spans,
// each Run is a span and the pool's tracer is cut and summarized after
// every Run, outside the span.
func timedRuns(p *adws.Pool, shapes []shape, seed uint64, d time.Duration, spans *spanLog) fjRun {
	rng := rand.New(rand.NewPCG(seed, 0xF0))
	r := fjRun{byShape: make(map[string][]float64)}
	var fails outcome
	s0, t0 := p.Stats(), watchdogTotal(p)
	ph := startPhase()
	for time.Since(ph.start) < d {
		r.ops++
		var op time.Duration
		opStart := time.Now()
		ok := true
		for _, i := range rng.Perm(len(shapes)) {
			sh := shapes[i]
			before := p.Stats().Tasks
			var got int64
			start := time.Now()
			p.Run(func(c *adws.Ctx) { got = sh.body(c) })
			end := time.Now()
			if spans != nil {
				spans.record(0, 0, r.ops, "adws.run", start, end)
				if tr := p.Tracer(); tr != nil {
					addSummary(&r.sum, trace.Summarize(tr.Cut(), tr.NumWorkers()))
				}
			}
			r.runs++
			if tasks := p.Stats().Tasks - before; tasks != sh.tasks || got != sh.want {
				fails.fail("Run %d (%s): %d tasks, result %d; want %d tasks, result %d",
					r.runs, sh.name, tasks, got, sh.tasks, sh.want)
				ok = false
				continue
			}
			op += end.Sub(start)
			r.byShape[sh.name] = append(r.byShape[sh.name], ms(end.Sub(start)))
		}
		if ok {
			r.lat.add(opStart, ms(op))
		}
	}
	r.ps = ph.end()
	r.failed, r.firstFailure = fails.failed, fails.firstFailure
	r.stats = statsDelta(p.Stats(), s0)
	r.triggers = watchdogTotal(p) - t0
	if tr := p.Tracer(); tr != nil {
		r.drops = tr.Drops()
	}
	return r
}

func runForkjoin(cfg config) (outcome, error) {
	fc := cfg.Forkjoin
	shapes := fc.shapes()
	setup := func(traced bool) func() (*adws.Pool, error) {
		return func() (*adws.Pool, error) {
			p, err := fc.newPool(cfg.Seed, traced)
			if err != nil {
				return nil, err
			}
			for _, sh := range shapes {
				for i := 0; i < fc.WarmupRuns; i++ {
					var got int64
					p.Run(func(c *adws.Ctx) { got = sh.body(c) })
					if got != sh.want {
						p.Close()
						return nil, fmt.Errorf("warm-up %s: result %d, want %d", sh.name, got, sh.want)
					}
				}
			}
			if tr := p.Tracer(); tr != nil {
				tr.Reset()
			}
			return p, nil
		}
	}
	closePool := func(p *adws.Pool) { p.Close() }

	d := cfg.Duration
	if cfg.Trace {
		d /= 2
	}
	p, setupS, err := repeatSetup(setupRepeats, setup(false), closePool)
	if err != nil {
		return outcome{}, err
	}
	r := timedRuns(p, shapes, cfg.Seed, d, nil)
	p.Close()

	out := outcome{attempted: r.runs, failed: r.failed, firstFailure: r.firstFailure, e2e: metrics{}, layer: metrics{}}
	out.e2e["setup_s"] = setupS
	out.e2e["op_p50_ms"] = r.lat.percentile(0.5)
	out.e2e["op_p90_ms"] = r.lat.percentile(0.9)
	r.ps.common(int(r.ops), out.e2e, out.layer)
	for name, lat := range r.byShape {
		out.layer["adws.run_ms_p50."+name] = median(lat)
	}
	runtimeLayer(r.stats, r.ps, out.layer)
	out.layer["obs.watchdog_triggers"] = float64(r.triggers)
	if !cfg.Trace {
		return out, nil
	}

	// Traced run: a pool with the runtime tracer on and a span per Run.
	tp, err := setup(true)()
	if err != nil {
		return outcome{}, err
	}
	spans := newSpanLog()
	tr := timedRuns(tp, shapes, cfg.Seed, d, spans)
	tp.Close()
	out.attempted += tr.runs
	if out.failed == 0 {
		out.firstFailure = tr.firstFailure
	}
	out.failed += tr.failed
	spans.ops = tr.ops
	out.spans = spans
	spans.selfMetrics(out.layer)
	traceLayer(tr.sum, tr.drops, tr.ops, out.layer)
	overhead(r.lat.percentile(0.5), tr.lat.percentile(0.5), out.layer)
	return out, nil
}

// runtimeLayer derives the runtime layer metrics from a phase's Stats
// delta and Go allocation counts.
func runtimeLayer(s adws.Stats, ps phaseStats, layer metrics) {
	tasks := float64(s.Tasks)
	layer["runtime.tasks_per_s"] = ratio(tasks, ps.wall.Seconds())
	layer["runtime.ns_per_task"] = ratio(float64(s.BusyNS), tasks)
	layer["runtime.allocs_per_task"] = ratio(float64(ps.mallocs), tasks)
	layer["runtime.bytes_per_task"] = ratio(float64(ps.bytes), tasks)
	layer["runtime.steal_success_ratio"] = s.StealSuccessRate()
	layer["runtime.steals_per_ktask"] = ratio(1000*float64(s.Steals), tasks)
	layer["runtime.migrations_per_ktask"] = ratio(1000*float64(s.Migrations), tasks)
	layer["runtime.idle_frac"] = ratio(float64(s.IdleNS), float64(s.BusyNS+s.IdleNS))
	layer["runtime.parks_per_ktask"] = ratio(1000*float64(s.Parks), tasks)
	layer["runtime.wakes_per_ktask"] = ratio(1000*float64(s.Wakes), tasks)
}

func statsDelta(a, b adws.Stats) adws.Stats {
	return adws.Stats{
		Tasks: a.Tasks - b.Tasks, Steals: a.Steals - b.Steals,
		StealAttempts: a.StealAttempts - b.StealAttempts, Migrations: a.Migrations - b.Migrations,
		Parks: a.Parks - b.Parks, Wakes: a.Wakes - b.Wakes,
		BusyNS: a.BusyNS - b.BusyNS, IdleNS: a.IdleNS - b.IdleNS,
	}
}

func watchdogTotal(p *adws.Pool) int64 {
	if p.Watchdog() == nil {
		return 0
	}
	var n int64
	for _, v := range p.Watchdog().Status().Triggers {
		n += v
	}
	return n
}

// addSummary accumulates the trace counters the benchmark reports.
func addSummary(acc *trace.Summary, s trace.Summary) {
	acc.Tasks += s.Tasks
	acc.Steals += s.Steals
	acc.WaitTime += s.WaitTime
	acc.ParkTime += s.ParkTime
	acc.DominantHits += s.DominantHits
	acc.DominantMisses += s.DominantMisses
	for len(acc.StealDistance) < len(s.StealDistance) {
		acc.StealDistance = append(acc.StealDistance, 0)
	}
	for d, n := range s.StealDistance {
		acc.StealDistance[d] += n
	}
}

// traceLayer reports the runtime tracer's summary; wait and park times
// are summed over workers (nested group waits overlap) per operation.
func traceLayer(s trace.Summary, drops, ops int64, layer metrics) {
	layer["trace.dominant_hit_rate"] = s.DominantGroupHitRate()
	layer["trace.steal_distance_p50"] = distanceMedian(s.StealDistance)
	layer["trace.wait_ms"] = ratio(float64(s.WaitTime)/1e6, float64(ops))
	layer["trace.park_ms"] = ratio(float64(s.ParkTime)/1e6, float64(ops))
	layer["trace.drops"] = float64(drops)
}

// distanceMedian is the median of a steal-distance histogram.
func distanceMedian(h []int64) float64 {
	var total, seen int64
	for _, n := range h {
		total += n
	}
	for d, n := range h {
		seen += n
		if 2*seen >= total && total > 0 {
			return float64(d)
		}
	}
	return 0
}

// overhead reports the traced versus untraced end-to-end medians.
func overhead(untraced, traced float64, layer metrics) {
	layer["trace.untraced_op_p50_ms"] = untraced
	layer["trace.traced_op_p50_ms"] = traced
	layer["trace.overhead_ratio"] = ratio(traced, untraced)
}
