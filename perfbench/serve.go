package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/workload"
)

// serveConfig is the serving workload: self-verifying jobs submitted
// through Cluster.Submit, adwsd's path without its HTTP/JSON stage. The
// untraced run is a closed loop of Clients clients; the traced run is an
// open loop of Poisson arrivals at Rate.
type serveConfig struct {
	Pools       []int     `json:"pools"`
	Policy      string    `json:"policy"`
	Scheduler   string    `json:"scheduler"`
	Admission   string    `json:"admission"`
	MaxInFlight int       `json:"max_in_flight"`
	MaxQueue    int       `json:"max_queue"`
	Clients     int       `json:"clients"`
	Rate        float64   `json:"rate_per_s"`
	Mix         []jobKind `json:"mix"`
	// WarmupRounds run every job kind once each during set-up.
	WarmupRounds int `json:"warmup_rounds"`
	// inject, when positive, makes that job (1-based, in due order)
	// return an error from its body: the wrong-output check of the tests.
	inject int64
}

// jobKind is one entry of the equal-share job mix.
type jobKind struct {
	Label string `json:"label"`
	Name  string `json:"name"`
	N     int    `json:"n"`
}

func defaultServe() serveConfig {
	return serveConfig{
		Pools: []int{2}, Policy: adws.RouteAffinity,
		Scheduler: adws.ADWS.String(), Admission: adws.AdmitFIFO,
		// adwsd's default queue holds 4 jobs per in-flight slot; Poisson
		// bursts overflow that at half load, and a refused job would be a
		// failed operation, so the queue is deeper here.
		MaxInFlight: 0, MaxQueue: 512,
		// Four clients keep two jobs running and two queued.
		Clients: 4,
		// The traced run's arrival rate; it leaves the workers idle most
		// of the time (runtime.idle_frac about 0.95).
		Rate: 300,
		// Inputs stay within a core's cache: with 0.2–1 MB of fresh input
		// per job, kernel time followed page faults and memory
		// contention and the median moved by a fifth between runs.
		Mix: []jobKind{
			{"fib18", "fib", 18}, {"fib22", "fib", 22}, {"rrm", "rrm", 20000},
			{"heat2d", "heat2d", 128}, {"quicksort", "quicksort", 10000}, {"matmul", "matmul", 64},
		},
		WarmupRounds: 40,
	}
}

// jobRec is everything observed about one job. The client writes the
// submit side, the job body its start and end, and whoever waits for the
// job the rest after Done; wg.Wait orders all of it before the report
// reads it. Times are instants, so that a run's records stay small next
// to the heap the benchmark measures.
type jobRec struct {
	kind                   int
	rejected               bool
	state                  adws.JobState
	buildStart, buildEnd   instant
	due                    instant
	submitStart, submitEnd instant
	submitted, dispatch    instant
	bodyStart, bodyEnd     instant
	done                   instant
	tasks, steals          int64
	err                    error
}

// instant is a time as nanoseconds since epoch: 8 bytes to time.Time's 24.
type instant int64

var epoch = time.Now()

func now() instant { return instant(time.Since(epoch)) }

func at(t time.Time) instant { return instant(t.Sub(epoch)) }

func (t instant) time() time.Time { return epoch.Add(time.Duration(t)) }

func (t instant) sub(u instant) time.Duration { return time.Duration(t - u) }

func (sc serveConfig) newCluster(seed uint64) (*adws.Cluster, error) {
	return adws.NewCluster(sc.Pools, sc.Policy,
		adws.WithScheduler(adws.ADWS), adws.WithSeed(seed),
		adws.WithAdmissionPolicy(sc.Admission), adws.WithAdmission(sc.MaxInFlight, sc.MaxQueue))
}

func (k jobKind) key() string { return fmt.Sprintf("%s/%d", k.Name, k.N) }

// warm runs every job kind sc.WarmupRounds times, one at a time.
func (sc serveConfig) warm(cl *adws.Cluster, seed uint64) error {
	for r := 0; r < sc.WarmupRounds; r++ {
		for i, k := range sc.Mix {
			job, err := workload.NewJob(k.Name, k.N, seed+uint64(r*len(sc.Mix)+i))
			if err != nil {
				return err
			}
			rec := &jobRec{kind: i}
			if cj, ok := sc.submit(cl, rec, job, false); ok {
				rec.finish(cj)
			}
			if !rec.ok() {
				return fmt.Errorf("warm-up %s: %v", k.Label, rec.err)
			}
		}
	}
	return nil
}

// serveRun is the outcome of one timed serving phase.
type serveRun struct {
	start    time.Time
	recs     []*jobRec
	queued   []queuedSample
	stats    adws.Stats
	triggers int64
	ps       phaseStats
}

type queuedSample struct {
	at     time.Duration
	queued int
}

// build makes the inputs of one job of rec's kind.
func (sc serveConfig) build(rec *jobRec, seed uint64) (workload.Job, error) {
	k := sc.Mix[rec.kind]
	rec.buildStart = now()
	job, err := workload.NewJob(k.Name, k.N, seed)
	rec.buildEnd = now()
	return job, err
}

// submit submits job through the cluster with a body that records when it
// starts and ends, or records why the cluster refused it.
func (sc serveConfig) submit(cl *adws.Cluster, rec *jobRec, job workload.Job, inject bool) (*adws.ClusterJob, bool) {
	body := job.Body
	fn := func(c *adws.Ctx) error {
		rec.bodyStart = now()
		err := body(c)
		rec.bodyEnd = now()
		// The cluster keeps up to 4096 finished jobs, each with its
		// closure; dropping the body here lets its inputs be freed.
		body = nil
		if inject {
			err = errors.New("injected wrong output")
		}
		return err
	}
	rec.submitStart = now()
	cj, err := cl.Submit(context.Background(), sc.Mix[rec.kind].key(), fn, job.Hint())
	rec.submitEnd = now()
	if err != nil {
		rec.err, rec.rejected = err, true
		return nil, false
	}
	return cj, true
}

// finish waits for the job's Done and records its outcome.
func (rec *jobRec) finish(cj *adws.ClusterJob) {
	<-cj.Done()
	rec.done = now()
	st := cj.Stats()
	rec.state, rec.err, rec.tasks, rec.steals = cj.State(), cj.Err(), st.Tasks, st.Steals
	rec.submitted = at(cj.Submitted())
	rec.dispatch = rec.submitted + instant(st.Queued)
}

// begin snapshots the pool counters a serving phase reports and starts
// the phase.
func (r *serveRun) begin(p *adws.Pool) (adws.Stats, int64, *phase) {
	s0, t0 := p.Stats(), watchdogTotal(p)
	ph := startPhase()
	r.start = ph.start
	return s0, t0, ph
}

// end closes the phase and takes the counter deltas.
func (r *serveRun) end(p *adws.Pool, s0 adws.Stats, t0 int64, ph *phase) {
	r.ps = ph.end()
	r.stats = statsDelta(p.Stats(), s0)
	r.triggers = watchdogTotal(p) - t0
}

// closedLoop runs sc.Clients clients for d, each building a job of a
// seeded kind, submitting it and waiting for it before the next. A job is
// timed from its submission.
func (sc serveConfig) closedLoop(cl *adws.Cluster, seed uint64, d time.Duration) serveRun {
	var r serveRun
	var mu sync.Mutex
	var wg sync.WaitGroup
	s0, t0, ph := r.begin(cl.Pool(0))
	for c := 0; c < sc.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)))
			var recs []*jobRec
			for i := int64(1); time.Since(ph.start) < d; i++ {
				rec := &jobRec{kind: rng.IntN(len(sc.Mix))}
				recs = append(recs, rec)
				job, err := sc.build(rec, seed<<24+uint64(c)<<20+uint64(i))
				if err != nil {
					rec.err = err
					continue
				}
				rec.due = now()
				if cj, ok := sc.submit(cl, rec, job, c == 0 && sc.inject == i); ok {
					rec.finish(cj)
				}
			}
			mu.Lock()
			r.recs = append(r.recs, recs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	r.end(cl.Pool(0), s0, t0, ph)
	return r
}

// openLoop is the open-loop generator: due times (Poisson arrivals at
// sc.Rate) and job kinds come from the seed, each job's inputs are built
// ahead of its due time, and every job is timed from its due time. One
// observer goroutine per in-flight job notes when Done closes.
func (sc serveConfig) openLoop(cl *adws.Cluster, seed uint64, d time.Duration, spans *spanLog) serveRun {
	rng := rand.New(rand.NewPCG(seed, 0x5E))
	var r serveRun
	var wg sync.WaitGroup
	s0, t0, ph := r.begin(cl.Pool(0))
	due := ph.start
	for i := int64(1); ; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / sc.Rate * float64(time.Second)))
		if due.Sub(ph.start) >= d {
			break
		}
		rec := &jobRec{kind: rng.IntN(len(sc.Mix)), due: at(due)}
		r.recs = append(r.recs, rec)
		job, err := sc.build(rec, seed<<20+uint64(i))
		if err != nil {
			rec.err = err
			continue
		}
		wait(due)
		cj, ok := sc.submit(cl, rec, job, sc.inject == i)
		if !ok {
			continue
		}
		q, _ := cl.InFlight()
		r.queued = append(r.queued, queuedSample{rec.submitEnd.sub(at(ph.start)), q})
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec.finish(cj)
			if spans != nil {
				rec.spans(spans, i)
			}
		}()
	}
	wg.Wait()
	r.end(cl.Pool(0), s0, t0, ph)
	return r
}

// wait returns at t. Go timers wake up to a millisecond late when the
// process is otherwise idle, so it sleeps until shortly before t and
// yields the processor until t passes.
func wait(t time.Time) {
	time.Sleep(time.Until(t) - time.Millisecond)
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spans records one finished job's spans: the client's view from due
// time to the observed Done, and each layer's interval inside it.
func (rec *jobRec) spans(l *spanLog, req int64) {
	root := l.reserve()
	child := func(name string, from, to instant) { l.record(0, root, req, name, from.time(), to.time()) }
	child("loadgen.build", rec.buildStart, rec.buildEnd)
	child("loadgen.lag", rec.due, rec.submitStart)
	child("cluster.submit", rec.submitStart, rec.submitEnd)
	child("server.queue", rec.submitted, rec.dispatch)
	child("server.claim", rec.dispatch, rec.bodyStart)
	child("kernels.body", rec.bodyStart, rec.bodyEnd)
	child("server.reap", rec.bodyEnd, rec.done)
	l.record(root, 0, req, "client.job", rec.due.time(), rec.done.time())
}

func (rec *jobRec) ok() bool { return rec.err == nil && rec.state == adws.JobDone }

// backlogGrowth reports why a run is invalid when the admission backlog
// or the generator's lateness grew through the run, or "".
func (r serveRun) backlogGrowth(d time.Duration) string {
	var first, last []float64
	var lagFirst, lagLast []float64
	for _, s := range r.queued {
		switch {
		case s.at < d/4:
			first = append(first, float64(s.queued))
		case s.at >= 3*d/4:
			last = append(last, float64(s.queued))
		}
	}
	for _, rec := range r.recs {
		if rec.submitStart == 0 {
			continue
		}
		lag := ms(rec.submitStart.sub(rec.due))
		switch off := rec.due.sub(at(r.start)); {
		case off < d/4:
			lagFirst = append(lagFirst, lag)
		case off >= 3*d/4:
			lagLast = append(lagLast, lag)
		}
	}
	if f, l := mean(first), mean(last); l > 2*f+16 {
		return fmt.Sprintf("admission backlog grew from %.1f to %.1f queued jobs", f, l)
	}
	if f, l := median(lagFirst), median(lagLast); l > f+50 {
		return fmt.Sprintf("generator lateness grew from %.1f ms to %.1f ms", f, l)
	}
	return ""
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func runServe(cfg config) (outcome, error) {
	sc := cfg.Serve
	setup := func() (*adws.Cluster, error) {
		cl, err := sc.newCluster(cfg.Seed)
		if err != nil {
			return nil, err
		}
		if err := sc.warm(cl, cfg.Seed); err != nil {
			cl.Close()
			return nil, err
		}
		return cl, nil
	}
	closeCluster := func(cl *adws.Cluster) { cl.Close() }
	cl, setupS, err := repeatSetup(setupRepeats, setup, closeCluster)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{e2e: metrics{}, layer: metrics{}}
	// layers fills the metrics of one untraced phase.
	layers := func(r serveRun) latencies {
		e2e := sc.score(r, &out, out.layer)
		r.ps.common(len(r.recs), out.e2e, out.layer)
		runtimeLayer(r.stats, r.ps, out.layer)
		out.layer["obs.watchdog_triggers"] = float64(r.triggers)
		return e2e
	}
	if !cfg.Trace {
		r := sc.closedLoop(cl, cfg.Seed, cfg.Duration)
		cl.Close()
		e2e := layers(r)
		out.e2e["setup_s"] = setupS
		out.e2e["op_p50_ms"] = e2e.percentile(0.5)
		out.e2e["op_p90_ms"] = e2e.percentile(0.9)
		return out, nil
	}

	// Traced run: the open loop, for half the time untraced and for half
	// with spans.
	d := cfg.Duration / 2
	r := sc.openLoop(cl, cfg.Seed, d, nil)
	cl.Close()
	e2e := layers(r)
	tcl, err := setup()
	if err != nil {
		return outcome{}, err
	}
	spans := newSpanLog()
	tr := sc.openLoop(tcl, cfg.Seed, d, spans)
	tcl.Close()
	// The layer metrics describe the untraced half; the traced one only
	// adds its checks, spans and latencies.
	traced := sc.score(tr, &out, metrics{})
	for _, run := range []serveRun{r, tr} {
		if why := run.backlogGrowth(d); why != "" {
			out.invalid = why
		}
	}
	spans.ops = int64(len(tr.recs))
	out.spans = spans
	spans.selfMetrics(out.layer)
	overhead(e2e.percentile(0.5), traced.percentile(0.5), out.layer)
	return out, nil
}

// score checks every job, adds the run's attempts and failures to out,
// fills the cluster, server, kernel and loadgen metrics of layer, and
// returns each job's end-to-end latency by due time (+Inf for a failed or
// refused job, which misses any limit).
func (sc serveConfig) score(r serveRun, out *outcome, l metrics) latencies {
	var e2e latencies
	var submit, queue, claim, reap, lag []float64
	exec := make([][]float64, len(sc.Mix))
	tasks := make([]int64, len(sc.Mix))
	steals := make([]int64, len(sc.Mix))
	runs := make([]int64, len(sc.Mix))
	var rejected int64
	failedBefore := out.failed
	for _, rec := range r.recs {
		if rec.submitStart != 0 {
			submit = append(submit, float64(rec.submitEnd.sub(rec.submitStart))/1e3)
			lag = append(lag, ms(rec.submitStart.sub(rec.due)))
		}
		if rec.rejected {
			rejected++
		}
		if !rec.ok() {
			out.fail("job %s: state %v, error %v", sc.Mix[rec.kind].Label, rec.state, rec.err)
			e2e.add(rec.due.time(), math.Inf(1))
			continue
		}
		e2e.add(rec.due.time(), ms(rec.done.sub(rec.due)))
		queue = append(queue, ms(rec.dispatch.sub(rec.submitted)))
		claim = append(claim, float64(rec.bodyStart.sub(rec.dispatch))/1e3)
		reap = append(reap, float64(rec.done.sub(rec.bodyEnd))/1e3)
		exec[rec.kind] = append(exec[rec.kind], ms(rec.bodyEnd.sub(rec.bodyStart)))
		tasks[rec.kind] += rec.tasks
		steals[rec.kind] += rec.steals
		runs[rec.kind]++
	}
	n := int64(len(r.recs))
	out.attempted += n
	l["job_fail_ratio"] = ratio(float64(out.failed-failedBefore), float64(n))
	l["server.reject_ratio"] = ratio(float64(rejected), float64(n))
	l["cluster.submit_us_p50"] = median(submit)
	l["cluster.submit_us_p99"] = quantile(submit, 0.99)
	l["server.queue_wait_ms_p50"] = median(queue)
	l["server.queue_wait_ms_p99"] = quantile(queue, 0.99)
	l["server.claim_us_p50"] = median(claim)
	l["server.claim_us_p99"] = quantile(claim, 0.99)
	l["server.reap_us_p50"] = median(reap)
	l["server.reap_us_p99"] = quantile(reap, 0.99)
	l["loadgen.lag_p99_ms"] = quantile(lag, 0.99)
	var maxQ int
	for _, s := range r.queued {
		maxQ = max(maxQ, s.queued)
	}
	l["loadgen.max_queued"] = float64(maxQ)
	for i, k := range sc.Mix {
		l["kernels.exec_ms_p50."+k.Label] = median(exec[i])
		l["kernels.tasks_per_job."+k.Label] = ratio(float64(tasks[i]), float64(runs[i]))
		l["kernels.steals_per_job."+k.Label] = ratio(float64(steals[i]), float64(runs[i]))
	}
	return e2e
}
