package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/trace"
	"github.com/parlab/adws/internal/workload"
)

// jobRequest is the POST /jobs body.
type jobRequest struct {
	// Workload names a built-in workload (see workload.JobNames).
	Workload string `json:"workload"`
	// Key is the routing key the cluster's affinity policy keeps on warm
	// pools. Empty defaults to "<workload>/<n>", so repeats of the same
	// computation are warm by construction.
	Key string `json:"key,omitempty"`
	// N is the problem size (0: the workload's default).
	N int `json:"n,omitempty"`
	// Seed drives the pseudo-random input (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Work and Size override the workload's default admission hints.
	Work float64 `json:"work,omitempty"`
	Size int64   `json:"size,omitempty"`
	// DeadlineMS, when positive, cancels the job if it is still queued
	// this many milliseconds after submission. A deadline already past at
	// submit is rejected synchronously with 400.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Class names the job's priority class under -admission=slo (empty:
	// the pool's default class). Unknown classes are rejected with 400.
	Class string `json:"class,omitempty"`
	// Tenant identifies the submitter for per-tenant rate limiting and
	// fairness accounting; empty means the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
}

// jobResponse describes one job in GET /jobs[/{id}] and POST /jobs. ID
// is the cluster-wide id; Pool and Verdict record where routing placed
// the job and whether that pool was warm for its key.
type jobResponse struct {
	ID       int64   `json:"id"`
	Workload string  `json:"workload"`
	Key      string  `json:"key,omitempty"`
	Class    string  `json:"class,omitempty"`
	Tenant   string  `json:"tenant,omitempty"`
	Pool     int     `json:"pool"`
	Verdict  string  `json:"verdict"`
	State    string  `json:"state"`
	Error    string  `json:"error,omitempty"`
	QueuedMS float64 `json:"queued_ms"`
	RunMS    float64 `json:"run_ms"`
	RangeLo  float64 `json:"range_lo"`
	RangeHi  float64 `json:"range_hi"`
	Tasks    int64   `json:"tasks"`
	Steals   int64   `json:"steals"`
	Migrs    int64   `json:"migrations"`
}

// poolResponse is one pool's entry in GET /pools. The per-class maps are
// keyed by priority class name; Fairness holds the Jain index over
// per-tenant mean e2e latency and omits classes with no completed jobs.
type poolResponse struct {
	Pool          int                     `json:"pool"`
	Workers       int                     `json:"workers"`
	Scheduler     string                  `json:"scheduler"`
	Queued        int                     `json:"queued"`
	Running       int                     `json:"running"`
	Admission     countersJSON            `json:"admission"`
	QueuedByClass map[string]int          `json:"queued_by_class"`
	Classes       map[string]countersJSON `json:"classes"`
	Fairness      map[string]float64      `json:"fairness_jain,omitempty"`
	Routing       routingJSON             `json:"routing"`
}

type countersJSON struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
}

type routingJSON struct {
	Jobs     int64            `json:"jobs"`
	Warm     int64            `json:"warm"`
	Cold     int64            `json:"cold"`
	Spill    int64            `json:"spill"`
	Moved    int64            `json:"moved"`
	Rejected int64            `json:"rejected"`
	WarmRate float64          `json:"warm_rate"`
	Classes  map[string]int64 `json:"classes,omitempty"`
}

// builder constructs a named workload; the daemon's registry maps
// workload names to builders (tests may inject extra entries).
type builder func(n int, seed uint64) (workload.Job, error)

// daemon is the HTTP job-serving frontend over a cluster of pools. A
// single-pool cluster behaves exactly like the old one-pool daemon
// (cluster ids coincide with pool ids); with -pools N the router fans
// jobs out and /pools exposes the per-pool routing ledger.
type daemon struct {
	cluster   *adws.Cluster
	workloads map[string]builder
	// traceMetrics enables the trace-derived section of /metrics. The
	// tracer's rings may only be read while the pool is quiescent
	// (docs/TRACING.md); enable it only for scrapes of idle or drained
	// daemons.
	traceMetrics bool

	mu    sync.Mutex       //adws:lockrank(10) top of the whole order: handlers fan out into everything
	names map[int64]string // cluster job id -> workload name
	start time.Time
}

func newDaemon(cluster *adws.Cluster, traceMetrics bool) *daemon {
	d := &daemon{
		cluster:      cluster,
		workloads:    make(map[string]builder),
		traceMetrics: traceMetrics,
		names:        make(map[int64]string),
		start:        time.Now(),
	}
	for _, name := range workload.JobNames() {
		name := name
		d.workloads[name] = func(n int, seed uint64) (workload.Job, error) {
			return workload.NewJob(name, n, seed)
		}
	}
	return d
}

// handler builds the daemon's route table.
func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", d.postJob)
	mux.HandleFunc("GET /jobs", d.listJobs)
	mux.HandleFunc("GET /jobs/{id}", d.getJob)
	mux.HandleFunc("GET /pools", d.listPools)
	mux.HandleFunc("GET /healthz", d.healthz)
	mux.HandleFunc("GET /metrics", d.metrics)
	d.registerDebug(mux)
	return mux
}

// maxRequestBytes bounds a POST /jobs body; a jobRequest needs a few
// hundred bytes.
const maxRequestBytes = 64 << 10

func (d *daemon) postJob(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Errorf("bad request body: %w", err))
		return
	}
	build, ok := d.workloads[req.Workload]
	if !ok {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("unknown workload %q (have %v)", req.Workload, workload.JobNames()))
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	wj, err := build(req.N, seed)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	hint := wj.Hint()
	if req.Work > 0 {
		hint.Work = req.Work
	}
	if req.Size > 0 {
		hint.Size = req.Size
	}
	if req.DeadlineMS > 0 {
		hint.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	hint.Class = req.Class
	hint.Tenant = req.Tenant
	key := req.Key
	if key == "" {
		key = fmt.Sprintf("%s/%d", wj.Name, wj.N)
	}
	body := wj.Body
	j, err := d.cluster.Submit(context.Background(), key, func(c *adws.Ctx) error { return body(c) }, hint)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, adws.ErrOverloaded) || errors.Is(err, adws.ErrDraining) ||
			errors.Is(err, adws.ErrPoolClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, adws.ErrRateLimited):
			status = http.StatusTooManyRequests
		case errors.Is(err, adws.ErrUnknownClass) || errors.Is(err, context.DeadlineExceeded):
			status = http.StatusBadRequest
		}
		httpError(w, status, err)
		return
	}
	d.mu.Lock()
	d.names[j.ClusterID()] = wj.Name
	d.mu.Unlock()
	writeJSON(w, http.StatusAccepted, d.describe(j))
}

func (d *daemon) getJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
		return
	}
	j, ok := d.cluster.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return
	}
	writeJSON(w, http.StatusOK, d.describe(j))
}

func (d *daemon) listJobs(w http.ResponseWriter, r *http.Request) {
	jobs := d.cluster.Jobs()
	out := make([]jobResponse, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, d.describe(j))
	}
	writeJSON(w, http.StatusOK, out)
}

// listPools renders the per-pool routing ledger: load, admission
// counters, and the warm/cold/spill/moved partition of routed jobs.
func (d *daemon) listPools(w http.ResponseWriter, r *http.Request) {
	counts := d.cluster.RouteCounts()
	pools := make([]poolResponse, d.cluster.NumPools())
	for i := range pools {
		p := d.cluster.Pool(i)
		queued, running := p.InFlight()
		ctr := p.Counters()
		rc := counts[i]
		classes := make(map[string]countersJSON)
		for cl, cc := range p.ClassCounters() {
			classes[cl] = countersJSON{
				Submitted: cc.Submitted,
				Rejected:  cc.Rejected,
				Completed: cc.Completed,
				Failed:    cc.Failed,
				Canceled:  cc.Canceled,
			}
		}
		pools[i] = poolResponse{
			Pool:      i,
			Workers:   p.NumWorkers(),
			Scheduler: p.Scheduler().String(),
			Queued:    queued,
			Running:   running,
			Admission: countersJSON{
				Submitted: ctr.Submitted,
				Rejected:  ctr.Rejected,
				Completed: ctr.Completed,
				Failed:    ctr.Failed,
				Canceled:  ctr.Canceled,
			},
			QueuedByClass: p.QueuedByClass(),
			Classes:       classes,
			Fairness:      p.JainByClass(),
			Routing: routingJSON{
				Jobs: rc.Jobs, Warm: rc.Warm, Cold: rc.Cold,
				Spill: rc.Spill, Moved: rc.Moved, Rejected: rc.Rejected,
				WarmRate: rc.WarmRate(), Classes: rc.Classes,
			},
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"policy": d.cluster.Policy(),
		"pools":  pools,
	})
}

func (d *daemon) describe(j *adws.ClusterJob) jobResponse {
	st := j.Stats()
	d.mu.Lock()
	name := d.names[j.ClusterID()]
	d.mu.Unlock()
	h := j.Hint()
	resp := jobResponse{
		ID:       j.ClusterID(),
		Workload: name,
		Class:    h.Class,
		Tenant:   h.Tenant,
		Pool:     j.Pool(),
		Verdict:  string(j.Verdict()),
		State:    j.State().String(),
		QueuedMS: float64(st.Queued) / 1e6,
		RunMS:    float64(st.Run) / 1e6,
		RangeLo:  st.RangeLo,
		RangeHi:  st.RangeHi,
		Tasks:    st.Tasks,
		Steals:   st.Steals,
		Migrs:    st.Migrations,
	}
	if err := j.Err(); err != nil {
		resp.Error = err.Error()
	}
	return resp
}

// watchdogHealth is one pool's watchdog entry in /healthz.
type watchdogHealth struct {
	Pool int `json:"pool"`
	adws.WatchdogStatus
}

// healthz reports liveness plus the per-pool watchdog verdicts. While
// any pool has an active stall verdict the status degrades to "stalled"
// and the endpoint answers 503, so load balancers and probes take the
// daemon out of rotation until the stall clears.
func (d *daemon) healthz(w http.ResponseWriter, r *http.Request) {
	queued, running := d.cluster.InFlight()
	status, code := "ok", http.StatusOK
	var wds []watchdogHealth
	for i := 0; i < d.cluster.NumPools(); i++ {
		wd := d.cluster.Pool(i).Watchdog()
		if wd == nil {
			continue
		}
		st := wd.Status()
		if !st.OK {
			status, code = "stalled", http.StatusServiceUnavailable
		}
		wds = append(wds, watchdogHealth{Pool: i, WatchdogStatus: st})
	}
	writeJSON(w, code, map[string]any{
		"status":    status,
		"uptime_s":  time.Since(d.start).Seconds(),
		"pools":     d.cluster.NumPools(),
		"policy":    d.cluster.Policy(),
		"admission": d.cluster.Pool(0).AdmissionPolicy(),
		"workers":   d.cluster.Workers(),
		"scheduler": d.cluster.Pool(0).Scheduler().String(),
		"queued":    queued,
		"running":   running,
		"watchdog":  wds,
	})
}

// metrics renders Prometheus text exposition. The default scrape is the
// cluster registry (adws_cluster_* routing counters and per-pool load
// gauges); a single-pool daemon appends its pool's full registry so the
// one-pool scrape keeps every family the pre-cluster daemon exposed.
// ?pool=i scrapes pool i's own registry instead (scheduler counters,
// admission gauges, latency histograms). Trace-derived metrics
// (dominant-group hit rate, steal distances) are appended to a pool
// scrape only when the daemon was started with -tracemetrics AND the
// pool has no job in flight, since reading the trace rings requires
// quiescence.
func (d *daemon) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if s := r.URL.Query().Get("pool"); s != "" {
		i, err := strconv.Atoi(s)
		if err != nil || i < 0 || i >= d.cluster.NumPools() {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad pool %q (have %d pools)", s, d.cluster.NumPools()))
			return
		}
		d.poolMetrics(w, i)
		return
	}
	_ = d.cluster.Metrics().WriteText(w)
	if d.cluster.NumPools() == 1 {
		d.poolMetrics(w, 0)
	}
}

func (d *daemon) poolMetrics(w http.ResponseWriter, i int) {
	p := d.cluster.Pool(i)
	_ = p.Metrics().WriteText(w)
	if d.traceMetrics {
		if queued, running := p.InFlight(); queued == 0 && running == 0 {
			if tr := p.Tracer(); tr != nil {
				d.traceSection(w, tr)
			}
		}
	}
}

func (d *daemon) traceSection(w http.ResponseWriter, tr *trace.Tracer) {
	s := tr.Summarize()
	fmt.Fprintf(w, "# TYPE adws_trace_dominant_hit_rate gauge\nadws_trace_dominant_hit_rate %g\n",
		s.DominantGroupHitRate())
	fmt.Fprintf(w, "# TYPE adws_trace_steal_success_rate gauge\nadws_trace_steal_success_rate %g\n",
		s.StealSuccessRate())
	fmt.Fprintf(w, "# TYPE adws_trace_drops_total counter\nadws_trace_drops_total %d\n", s.Drops)
	fmt.Fprintf(w, "# TYPE adws_trace_steal_distance_total counter\n")
	for dist, n := range s.StealDistance {
		if n > 0 {
			fmt.Fprintf(w, "adws_trace_steal_distance_total{distance=\"%d\"} %d\n", dist, n)
		}
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
