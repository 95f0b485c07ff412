// Package server is the job-serving layer over the adws runtime: it turns
// one persistent, locality-aware worker pool into a multi-tenant service
// that many clients share concurrently.
//
// Jobs are admitted through a bounded FIFO queue with fast-reject
// backpressure (ErrOverloaded) and a cap on concurrently running jobs.
// When a job is dispatched, the server divides the pool's worker range
// among the in-flight jobs with the same hint-guided proportional
// division ADWS applies to sibling tasks (paper §3.1): a job with work
// hint w receives the fraction w / Σ(in-flight work) of the workers,
// assigned from a deterministic rolling cursor, and its root task group
// is injected at that sub-range (runtime.SubmitRoot). Under ADWS the
// job's dominant-group steal ranges then confine its tasks to its slice
// of the machine — the job-level analogue of bounding where sibling
// subtrees land, which is what preserves cache locality under mixed
// workloads.
//
// Determinism caveat: a single in-flight job over the full range behaves
// exactly like Pool.Run. With several concurrent jobs, placement is
// deterministic in admission order, but dynamic load balancing may move
// tasks of different jobs across each other's ranges, and admission order
// itself depends on client timing — concurrent serving trades the
// almost-determinism of a solo run for throughput (see docs/SERVER.md).
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/parlab/adws/internal/runtime"
)

var (
	// ErrOverloaded is the fast-reject: the admission queue is full.
	ErrOverloaded = errors.New("server: overloaded: admission queue is full")
	// ErrDraining rejects submissions while Drain is in progress.
	ErrDraining = errors.New("server: draining: not admitting new jobs")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("server: closed")
)

// Built-in admission policy names for Config.AdmissionPolicy.
const (
	// AdmitFIFO is bounded-FIFO admission (BoundedFIFO), the default.
	AdmitFIFO = "fifo"
	// AdmitSLO is SLO-aware admission (PriorityAdmitter): priority
	// classes with aging, EDF within a class, SJF tie-break, per-tenant
	// rate limiting.
	AdmitSLO = "slo"
)

// Config parameterizes admission control and placement.
type Config struct {
	// MaxInFlight caps concurrently running jobs (<= 0: the pool's worker
	// count).
	MaxInFlight int
	// MaxQueue caps the admission queue depth; submissions beyond it are
	// fast-rejected with ErrOverloaded (<= 0: 4 × MaxInFlight).
	MaxQueue int
	// RetainDone caps how many terminal jobs the id lookup keeps, oldest
	// evicted first (<= 0: 1024). In-flight jobs are always retained.
	RetainDone int
	// AdmissionPolicy selects the admission policy: AdmitFIFO (default)
	// or AdmitSLO. Any other value panics in New.
	AdmissionPolicy string
	// Classes is the priority-class list, highest priority first (nil:
	// DefaultClasses). Per-class accounting uses it under every policy;
	// dispatch order consults it only under AdmitSLO.
	Classes []string
	// DefaultClass is the class assigned to submissions with an empty
	// Hint.Class ("": ClassStandard when present in Classes, else the
	// lowest-priority class).
	DefaultClass string
	// Aging is the AdmitSLO cross-class promotion quantum (<= 0:
	// DefaultAging).
	Aging time.Duration
	// TenantRate and TenantBurst configure AdmitSLO per-tenant token
	// buckets (rate <= 0 disables limiting; burst <= 0 defaults to
	// max(1, rate)).
	TenantRate, TenantBurst float64
	// Metrics, if non-nil, receives per-job queue-wait, service, and
	// end-to-end latencies plus admission reject / deadline-expiry counts
	// (see Metrics). Nil disables recording at one pointer check per site.
	Metrics *Metrics
}

func (c Config) withDefaults(workers int) Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.RetainDone <= 0 {
		c.RetainDone = 1024
	}
	if c.AdmissionPolicy == "" {
		c.AdmissionPolicy = AdmitFIFO
	}
	if len(c.Classes) == 0 {
		c.Classes = DefaultClasses()
	}
	if c.DefaultClass == "" {
		c.DefaultClass = c.Classes[len(c.Classes)-1]
		for _, cl := range c.Classes {
			if cl == ClassStandard {
				c.DefaultClass = ClassStandard
				break
			}
		}
	}
	if !containsClass(c.Classes, c.DefaultClass) {
		panic("server: DefaultClass " + c.DefaultClass + " is not in Classes")
	}
	return c
}

// admitter builds the admission policy AdmissionPolicy selects.
func (c Config) admitter() Admitter {
	switch c.AdmissionPolicy {
	case AdmitFIFO:
		return BoundedFIFO{MaxInFlight: c.MaxInFlight, MaxQueue: c.MaxQueue}
	case AdmitSLO:
		p := NewPriorityAdmitter(c.Classes, c.MaxInFlight, c.MaxQueue)
		p.Aging = c.Aging
		p.TenantRate = c.TenantRate
		p.TenantBurst = c.TenantBurst
		return p
	}
	panic("server: unknown admission policy " + c.AdmissionPolicy)
}

// Counters are the server's monotonic admission counters.
type Counters struct {
	Submitted, Rejected, Completed, Failed, Canceled int64
}

// tenantAgg accumulates one tenant's completed-job latency within a
// class, the per-tenant throughput figure the Jain fairness index is
// computed over.
type tenantAgg struct {
	done  int64
	e2eNS int64
}

// classState is one priority class's accounting: its own counter set and
// the per-tenant completion aggregates.
type classState struct {
	ctrs    Counters
	tenants map[string]*tenantAgg
}

func containsClass(classes []string, c string) bool {
	for _, cl := range classes {
		if cl == c {
			return true
		}
	}
	return false
}

// Server serves concurrent jobs on one runtime pool.
type Server struct {
	pool  *runtime.Pool
	cfg   Config
	admit Admitter
	// metrics is nil unless latency recording was requested.
	metrics *Metrics

	mu       sync.Mutex //adws:lockrank(30) under cluster.mu, over the runtime's pool locks
	queue    []*Job
	running  int
	workSum  float64 // Σ work hints of running jobs
	cursor   float64 // rolling placement cursor in [0, 1)
	idSeq    int64
	draining bool
	closed   bool
	// drained is closed when draining && no jobs in flight (lazily made).
	drained chan struct{}
	jobs    map[int64]*Job
	order   []int64 // job ids in submission order, for bounded retention
	ctrs    Counters
	classes map[string]*classState // per-class accounting, keyed by class
}

// New creates a job server over pool. The server starts no goroutines
// until jobs are submitted.
func New(pool *runtime.Pool, cfg Config) *Server {
	if cfg.Metrics != nil {
		cfg.Metrics.check()
	}
	cfg = cfg.withDefaults(pool.NumWorkers())
	classes := make(map[string]*classState, len(cfg.Classes))
	for _, c := range cfg.Classes {
		classes[c] = &classState{tenants: make(map[string]*tenantAgg)}
	}
	return &Server{
		pool:    pool,
		cfg:     cfg,
		admit:   cfg.admitter(),
		metrics: cfg.Metrics,
		jobs:    make(map[int64]*Job),
		classes: classes,
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Submit admits fn as a new job. It never blocks: the job is dispatched
// immediately when a running slot is free, queued when the admission
// queue has room, and otherwise rejected with ErrOverloaded. ctx and the
// hint deadline bound the job's time in the queue (see Hint.Deadline); a
// deadline already past is rejected synchronously with
// context.DeadlineExceeded. An empty h.Class takes the server's default
// class; an unknown one is rejected with ErrUnknownClass. fn's returned
// error (or recovered panic) becomes Job.Err.
func (s *Server) Submit(ctx context.Context, fn func(*runtime.Ctx) error, h Hint) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, ErrClosed
	case s.draining:
		return nil, ErrDraining
	}
	if h.Class == "" {
		h.Class = s.cfg.DefaultClass
	}
	cs := s.classes[h.Class]
	if cs == nil {
		s.ctrs.Rejected++
		s.noteReject(ErrUnknownClass)
		return nil, fmt.Errorf("%w %q", ErrUnknownClass, h.Class)
	}
	// A deadline that has already passed can never run: reject it now
	// instead of burning a queue slot on a job that only exists to be
	// cancelled at dispatch.
	if !h.Deadline.IsZero() && !h.Deadline.After(now) {
		s.ctrs.Rejected++
		cs.ctrs.Rejected++
		s.noteReject(context.DeadlineExceeded)
		return nil, context.DeadlineExceeded
	}
	// Reap entries whose deadline or context expired while queued before
	// consulting the Admitter, so a burst of short-deadline jobs cannot
	// pin queue slots and cause spurious ErrOverloaded rejects.
	s.reapExpiredLocked()
	if err := s.admit.Admit(h, now, len(s.queue), s.running); err != nil {
		s.ctrs.Rejected++
		cs.ctrs.Rejected++
		s.noteReject(err)
		return nil, err
	}

	var jctx context.Context
	var cancel context.CancelFunc
	if h.Deadline.IsZero() {
		jctx, cancel = context.WithCancel(ctx)
	} else {
		jctx, cancel = context.WithDeadline(ctx, h.Deadline)
	}
	s.idSeq++
	j := &Job{
		id:        s.idSeq,
		hint:      h,
		fn:        fn,
		ctx:       jctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		srv:       s,
		state:     Queued,
		submitted: now,
	}
	s.ctrs.Submitted++
	cs.ctrs.Submitted++
	s.retainLocked(j)

	if s.admit.CanDispatch(s.running) && len(s.queue) == 0 {
		s.dispatchLocked(j)
		return j, nil
	}
	s.queue = append(s.queue, j)
	// Complete a job promptly if it is cancelled or expires while queued.
	stop := context.AfterFunc(jctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if j.state != Queued {
			return
		}
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.noteQueueExpiry(j.ctx.Err())
		s.completeLocked(j, Canceled, j.ctx.Err())
	})
	j.stopWatch = stop
	return j, nil
}

// dispatchLocked places j on the pool. Caller holds s.mu.
func (s *Server) dispatchLocked(j *Job) {
	if j.stopWatch != nil {
		j.stopWatch()
		j.stopWatch = nil
	}
	if err := j.ctx.Err(); err != nil {
		s.completeLocked(j, Canceled, err)
		return
	}
	work := j.hint.Work
	if work <= 0 {
		work = 1
	}
	lo, hi := s.placeLocked(work)
	root, err := s.pool.SubmitRoot(s.body(j), lo, hi)
	if err != nil {
		s.completeLocked(j, Failed, err)
		return
	}
	s.running++
	s.workSum += work
	j.state = Running
	j.started = time.Now()
	j.root = root
	j.lo, j.hi = lo, hi
	s.noteDispatch(j)
	go s.reap(j, work)
}

// placeLocked returns the worker-range fraction [lo, hi) ⊆ [0, 1] for a
// dispatching job with the given (positive) work hint — the paper's §3.1
// hint-proportional division applied at the job level: the job receives
// the fraction work / (running work + work) of the workers, clamped to at
// least one worker, carved from a rolling cursor that wraps to 0 when the
// slice would cross the top. Deterministic in dispatch order. Caller
// holds s.mu.
func (s *Server) placeLocked(work float64) (lo, hi float64) {
	width := work / (s.workSum + work)
	if minW := 1 / float64(s.pool.NumWorkers()); width < minW {
		width = minW
	}
	if width > 1 {
		width = 1
	}
	if s.cursor+width > 1 {
		s.cursor = 0
	}
	lo = s.cursor
	hi = lo + width
	if hi >= 1 {
		hi = 1
		s.cursor = 0
	} else {
		s.cursor = hi
	}
	return lo, hi
}

// body wraps the job's fn for the runtime: a sized root task group when
// the job carries a size hint (so multi-level scheduling can tie the job
// to a fitting cache), error capture, and panic containment.
func (s *Server) body(j *Job) func(*runtime.Ctx) {
	return func(c *runtime.Ctx) {
		defer func() {
			if r := recover(); r != nil {
				s.mu.Lock()
				j.err = fmt.Errorf("job %d panicked: %v", j.id, r)
				s.mu.Unlock()
			}
		}()
		var err error
		if j.hint.Size > 0 {
			w := j.hint.Work
			if w <= 0 {
				w = 1
			}
			g := c.Group(runtime.GroupHint{Work: w, Size: j.hint.Size})
			g.Spawn(w, func(c *runtime.Ctx) { err = j.fn(c) })
			g.Wait()
		} else {
			err = j.fn(c)
		}
		if err != nil {
			s.mu.Lock()
			if j.err == nil {
				j.err = err
			}
			s.mu.Unlock()
		}
	}
}

// reap waits for j's root to complete, finalizes it, and dispatches the
// next queued job(s) in Admitter order.
func (s *Server) reap(j *Job, work float64) {
	<-j.root.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	s.workSum -= work
	// A root can complete without running: Pool.Close fails unclaimed
	// roots with runtime.ErrClosed. That error outranks anything the job
	// body recorded (the body never ran).
	if rerr := j.root.Err(); rerr != nil {
		s.completeLocked(j, Failed, rerr)
	} else if j.err != nil {
		s.completeLocked(j, Failed, j.err)
	} else {
		s.completeLocked(j, Done, nil)
	}
	s.dispatchQueuedLocked()
	s.signalDrainedLocked()
}

// dispatchQueuedLocked reaps expired queue entries, then dispatches in
// Admitter-chosen order while running slots are free. Caller holds s.mu.
func (s *Server) dispatchQueuedLocked() {
	s.reapExpiredLocked()
	for s.admit.CanDispatch(s.running) && len(s.queue) > 0 {
		now := time.Now()
		i := s.admit.Next(now, s.queue)
		if i < 0 || i >= len(s.queue) {
			i = 0
		}
		next := s.queue[i]
		copy(s.queue[i:], s.queue[i+1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		s.dispatchLocked(next)
	}
}

// reapExpiredLocked completes queued jobs whose context is already done
// (deadline expired or cancelled) as Canceled, without waiting for their
// AfterFunc watcher to fire, so queue depth never counts dead entries —
// neither toward ErrOverloaded nor toward the load figures routers read
// via InFlight. Caller holds s.mu.
func (s *Server) reapExpiredLocked() {
	live := 0
	for _, j := range s.queue {
		if err := j.ctx.Err(); err != nil {
			s.noteQueueExpiry(err)
			s.completeLocked(j, Canceled, err)
			continue
		}
		s.queue[live] = j
		live++
	}
	for i := live; i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = s.queue[:live]
}

// completeLocked moves j to a terminal state. Caller holds s.mu.
func (s *Server) completeLocked(j *Job, st State, err error) {
	if j.state.Terminal() {
		return
	}
	if j.stopWatch != nil {
		j.stopWatch()
		j.stopWatch = nil
	}
	j.state = st
	j.err = err
	// Retained jobs must not pin their inputs: drop the closure. Every
	// caller runs after the root's Done or before dispatch, so no worker
	// can still be reading fn.
	j.fn = nil
	j.finished = time.Now()
	s.noteComplete(j)
	j.cancel()
	cs := s.classes[j.hint.Class]
	switch st {
	case Done:
		s.ctrs.Completed++
		if cs != nil {
			cs.ctrs.Completed++
			agg := cs.tenants[j.hint.Tenant]
			if agg == nil {
				agg = &tenantAgg{}
				cs.tenants[j.hint.Tenant] = agg
			}
			agg.done++
			agg.e2eNS += int64(j.finished.Sub(j.submitted))
		}
	case Failed:
		s.ctrs.Failed++
		if cs != nil {
			cs.ctrs.Failed++
		}
	case Canceled:
		s.ctrs.Canceled++
		if cs != nil {
			cs.ctrs.Canceled++
		}
	}
	close(j.done)
	s.signalDrainedLocked()
}

func (s *Server) signalDrainedLocked() {
	if s.draining && s.running == 0 && len(s.queue) == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
}

// Drain stops admitting new jobs (submissions fail with ErrDraining) and
// waits until every queued and running job reached a terminal state, or
// ctx is done. Draining is sticky: it is not undone by a ctx expiry (call
// Drain again to keep waiting).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.running == 0 && len(s.queue) == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.drained == nil {
		s.drained = make(chan struct{})
	}
	drained := s.drained
	s.mu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close rejects all future submissions (ErrClosed). It does not wait:
// call Drain first for a graceful shutdown. Queued jobs that were never
// dispatched are cancelled.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.draining = true
	for _, j := range s.queue {
		s.completeLocked(j, Canceled, ErrClosed)
	}
	s.queue = nil
	s.signalDrainedLocked()
}

// Job returns the job with the given id, if retained.
func (s *Server) Job(id int64) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns the retained jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// InFlight returns the current queue depth and running-job count.
// Expired queue entries are reaped first, so the queued figure counts
// only jobs that can still run — load-based routers (least-loaded,
// affinity spill) would otherwise steer work away from pools that merely
// absorbed a burst of expired-deadline jobs.
func (s *Server) InFlight() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapExpiredLocked()
	return len(s.queue), s.running
}

// OldestQueueAge returns how long the oldest still-admissible queued job
// has been waiting (expired entries reaped first), zero when the queue
// is empty. It is a watchdog signal: a growing oldest-age with idle or
// stalled workers distinguishes a scheduler stall from a mere burst.
func (s *Server) OldestQueueAge() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapExpiredLocked()
	if len(s.queue) == 0 {
		return 0
	}
	oldest := s.queue[0].submitted
	for _, j := range s.queue[1:] {
		if j.submitted.Before(oldest) {
			oldest = j.submitted
		}
	}
	age := time.Since(oldest)
	if age < 0 {
		return 0
	}
	return age
}

// Classes returns the configured priority-class list, highest priority
// first.
func (s *Server) Classes() []string {
	out := make([]string, len(s.cfg.Classes))
	copy(out, s.cfg.Classes)
	return out
}

// QueuedByClass returns the live queue depth per class (expired entries
// reaped first). Classes with an empty queue are present with a zero.
func (s *Server) QueuedByClass() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapExpiredLocked()
	out := make(map[string]int, len(s.cfg.Classes))
	for _, c := range s.cfg.Classes {
		out[c] = 0
	}
	for _, j := range s.queue {
		out[j.hint.Class]++
	}
	return out
}

// ClassCounters returns the per-class admission counters. Rejections
// that happen before a class is resolved (closed/draining/unknown class)
// appear only in the aggregate Counters.
func (s *Server) ClassCounters() map[string]Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Counters, len(s.classes))
	for c, cs := range s.classes {
		out[c] = cs.ctrs
	}
	return out
}

// JainByClass returns the Jain fairness index over per-tenant mean
// end-to-end latency of completed jobs within each class:
// J = (Σx)² / (n·Σx²) for the n tenants with completions, so 1 means
// every tenant saw the same mean latency and 1/n means one tenant
// absorbed it all. Classes with no completions are omitted.
func (s *Server) JainByClass() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64)
	for c, cs := range s.classes {
		var sum, sumSq float64
		n := 0
		for _, agg := range cs.tenants {
			if agg.done == 0 {
				continue
			}
			mean := float64(agg.e2eNS) / float64(agg.done)
			sum += mean
			sumSq += mean * mean
			n++
		}
		if n == 0 || sumSq == 0 {
			continue
		}
		out[c] = (sum * sum) / (float64(n) * sumSq)
	}
	return out
}

// Workers returns the underlying pool's worker count.
func (s *Server) Workers() int { return s.pool.NumWorkers() }

// Counters returns the monotonic admission counters.
func (s *Server) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrs
}

// retainLocked registers j for id lookup and evicts the oldest terminal
// jobs beyond the retention cap. Caller holds s.mu.
func (s *Server) retainLocked(j *Job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.order) <= s.cfg.RetainDone {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.cfg.RetainDone
	for _, id := range s.order {
		if excess > 0 {
			if old, ok := s.jobs[id]; ok && old.state.Terminal() {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}
