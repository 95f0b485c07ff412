package server

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parlab/adws/internal/runtime"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/trace"
)

func newTestServer(t *testing.T, workers int, cfg Config) (*Server, *runtime.Pool) {
	t.Helper()
	p := runtime.NewPool(runtime.Config{
		Machine: topology.Flat(workers, 32<<20, 1<<20),
		Policy:  runtime.ADWS,
		Seed:    42,
	})
	t.Cleanup(p.Close)
	s := New(p, cfg)
	t.Cleanup(s.Close)
	return s, p
}

// wait fails the test if the job does not reach a terminal state in time.
func wait(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	select {
	case <-j.Done():
	case <-ctx.Done():
		t.Fatalf("job %d did not complete (state %v)", j.ID(), j.State())
	}
}

func noop(*runtime.Ctx) error { return nil }

// blocker submits a job whose body blocks until release is closed.
func blocker(t *testing.T, s *Server, release chan struct{}) *Job {
	t.Helper()
	j, err := s.Submit(context.Background(), func(*runtime.Ctx) error { <-release; return nil }, Hint{Work: 1})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestSubmitRunsJob(t *testing.T) {
	s, _ := newTestServer(t, 4, Config{})
	var ran atomic.Bool
	j, err := s.Submit(context.Background(), func(c *runtime.Ctx) error {
		ran.Store(true)
		return nil
	}, Hint{Work: 2, Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if !ran.Load() {
		t.Error("job body did not run")
	}
	if st := j.State(); st != Done {
		t.Errorf("state = %v, want Done", st)
	}
	if err := j.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
	st := j.Stats()
	if st.Run <= 0 || st.Queued < 0 {
		t.Errorf("stats timing = %+v", st)
	}
	if !(st.RangeLo < st.RangeHi) || st.RangeLo < 0 || st.RangeHi > 1 {
		t.Errorf("stats range [%v, %v)", st.RangeLo, st.RangeHi)
	}
	if st.Tasks <= 0 {
		t.Errorf("stats tasks = %d, want positive", st.Tasks)
	}
}

func TestSubmitErrorAndPanic(t *testing.T) {
	s, _ := newTestServer(t, 2, Config{})
	boom := errors.New("boom")
	j, err := s.Submit(context.Background(), func(*runtime.Ctx) error { return boom }, Hint{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if j.State() != Failed || !errors.Is(j.Err(), boom) {
		t.Errorf("error job: state %v err %v", j.State(), j.Err())
	}

	j, err = s.Submit(context.Background(), func(*runtime.Ctx) error { panic("kaboom") }, Hint{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if j.State() != Failed || j.Err() == nil || !strings.Contains(j.Err().Error(), "kaboom") {
		t.Errorf("panicking job: state %v err %v", j.State(), j.Err())
	}

	c := s.Counters()
	if c.Failed != 2 || c.Submitted != 2 {
		t.Errorf("counters = %+v", c)
	}
}

// TestOverloadFastReject pins the admission window: with both running
// slots pinned and the queue full, Submit fails immediately with
// ErrOverloaded and counts the rejection.
func TestOverloadFastReject(t *testing.T) {
	s, _ := newTestServer(t, 4, Config{MaxInFlight: 2, MaxQueue: 2})
	release := make(chan struct{})
	blocker(t, s, release)
	blocker(t, s, release)
	q1 := blocker(t, s, release)
	q2 := blocker(t, s, release)
	if queued, running := s.InFlight(); queued != 2 || running != 2 {
		t.Fatalf("in flight = %d queued, %d running; want 2, 2", queued, running)
	}
	start := time.Now()
	if _, err := s.Submit(context.Background(), noop, Hint{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit over full queue: err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("fast-reject took %v", d)
	}
	if c := s.Counters(); c.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", c.Rejected)
	}
	close(release)
	wait(t, q1)
	wait(t, q2)
}

// TestQueuedDeadlineCancels pins deadline handling: a job whose deadline
// expires while queued completes Canceled without ever dispatching.
func TestQueuedDeadlineCancels(t *testing.T) {
	s, _ := newTestServer(t, 2, Config{MaxInFlight: 1, MaxQueue: 4})
	release := make(chan struct{})
	b := blocker(t, s, release)
	var ran atomic.Bool
	j, err := s.Submit(context.Background(), func(*runtime.Ctx) error {
		ran.Store(true)
		return nil
	}, Hint{Deadline: time.Now().Add(30 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if j.State() != Canceled || !errors.Is(j.Err(), context.DeadlineExceeded) {
		t.Errorf("expired job: state %v err %v", j.State(), j.Err())
	}
	if queued, _ := s.InFlight(); queued != 0 {
		t.Errorf("expired job still queued (depth %d)", queued)
	}
	close(release)
	wait(t, b)
	if ran.Load() {
		t.Error("expired job's body ran")
	}
	if c := s.Counters(); c.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", c.Canceled)
	}
}

// TestQueuedContextCancel is the caller-cancellation twin of the deadline
// test, including Job.Cancel as the cancellation source.
func TestQueuedContextCancel(t *testing.T) {
	s, _ := newTestServer(t, 2, Config{MaxInFlight: 1, MaxQueue: 4})
	release := make(chan struct{})
	defer close(release)
	blocker(t, s, release)

	ctx, cancel := context.WithCancel(context.Background())
	j, err := s.Submit(ctx, noop, Hint{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wait(t, j)
	if j.State() != Canceled || !errors.Is(j.Err(), context.Canceled) {
		t.Errorf("ctx-canceled job: state %v err %v", j.State(), j.Err())
	}

	j2, err := s.Submit(context.Background(), noop, Hint{})
	if err != nil {
		t.Fatal(err)
	}
	j2.Cancel()
	wait(t, j2)
	if j2.State() != Canceled {
		t.Errorf("Job.Cancel: state %v, want Canceled", j2.State())
	}

	// A context already done at submission is rejected outright.
	if _, err := s.Submit(ctx, noop, Hint{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Submit with done ctx: err = %v, want context.Canceled", err)
	}
}

// TestDrain pins graceful shutdown: Drain waits for queued and running
// jobs, rejects concurrent submissions with ErrDraining, and is sticky.
func TestDrain(t *testing.T) {
	s, _ := newTestServer(t, 2, Config{MaxInFlight: 1, MaxQueue: 4})
	release := make(chan struct{})
	b := blocker(t, s, release)
	q := blocker(t, s, release)

	// Drain with in-flight jobs times out while they block...
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain of blocked server: err = %v, want DeadlineExceeded", err)
	}
	cancel()
	// ...and draining is sticky: new submissions already fail.
	if _, err := s.Submit(context.Background(), noop, Hint{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining: err = %v, want ErrDraining", err)
	}

	close(release)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	if err := s.Drain(ctx2); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	wait(t, b)
	wait(t, q)
	if b.State() != Done || q.State() != Done {
		t.Errorf("after drain: states %v, %v, want Done", b.State(), q.State())
	}
	if queued, running := s.InFlight(); queued != 0 || running != 0 {
		t.Errorf("after drain: %d queued, %d running", queued, running)
	}
}

// TestCloseCancelsQueued pins Close semantics: queued jobs complete
// Canceled with ErrClosed, later submissions fail with ErrClosed.
func TestCloseCancelsQueued(t *testing.T) {
	s, _ := newTestServer(t, 2, Config{MaxInFlight: 1, MaxQueue: 4})
	release := make(chan struct{})
	b := blocker(t, s, release)
	q := blocker(t, s, release)
	s.Close()
	wait(t, q)
	if q.State() != Canceled || !errors.Is(q.Err(), ErrClosed) {
		t.Errorf("queued job after Close: state %v err %v", q.State(), q.Err())
	}
	if _, err := s.Submit(context.Background(), noop, Hint{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrClosed", err)
	}
	close(release)
	wait(t, b) // the running job still completes
}

// TestPoolCloseFailsDispatchedJob pins the propagation of the pool's
// Close drain through the job layer: a job whose root was submitted to
// the pool but never claimed by a worker must finish Failed with
// runtime.ErrClosed, not hang or report Done.
func TestPoolCloseFailsDispatchedJob(t *testing.T) {
	s, p := newTestServer(t, 1, Config{MaxInFlight: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	j1, err := s.Submit(context.Background(), func(*runtime.Ctx) error {
		close(started)
		<-release
		return nil
	}, Hint{Work: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// MaxInFlight 2 dispatches j2's root to the pool immediately, but the
	// only worker is pinned inside j1's body, so the root stays queued.
	j2, err := s.Submit(context.Background(), func(*runtime.Ctx) error {
		t.Error("orphaned job body ran")
		return nil
	}, Hint{Work: 1})
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	wait(t, j2)
	if j2.State() != Failed || !errors.Is(j2.Err(), runtime.ErrClosed) {
		t.Errorf("orphaned job after pool Close: state %v err %v, want Failed/ErrClosed",
			j2.State(), j2.Err())
	}

	close(release)
	wait(t, j1)
	if j1.State() != Done || j1.Err() != nil {
		t.Errorf("running job after pool Close: state %v err %v, want Done/nil",
			j1.State(), j1.Err())
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("pool Close did not return")
	}
}

// TestPlacementDividesWorkers pins hint-guided placement: two concurrent
// jobs with 3:1 work hints receive adjacent range fractions 0.75 and 0.25.
func TestPlacementDividesWorkers(t *testing.T) {
	s, _ := newTestServer(t, 4, Config{MaxInFlight: 4})
	release := make(chan struct{})
	a, err := s.Submit(context.Background(), func(*runtime.Ctx) error { <-release; return nil }, Hint{Work: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(context.Background(), func(*runtime.Ctx) error { <-release; return nil }, Hint{Work: 1})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	wait(t, a)
	wait(t, b)
	sa, sb := a.Stats(), b.Stats()
	if sa.RangeLo != 0 || sa.RangeHi != 1 {
		t.Errorf("first job range [%v, %v), want [0, 1) (alone at dispatch)", sa.RangeLo, sa.RangeHi)
	}
	if sb.RangeLo != 0 || sb.RangeHi != 0.25 {
		t.Errorf("second job range [%v, %v), want [0, 0.25) (1/(3+1) of the pool)", sb.RangeLo, sb.RangeHi)
	}
}

// TestPerJobTraceSlices pins the per-job trace attribution: on a traced
// pool, slicing the event stream by job and summarizing must reproduce
// the pool-level totals for every attributable counter.
func TestPerJobTraceSlices(t *testing.T) {
	tr := trace.New(4, 1<<16)
	p := runtime.NewPool(runtime.Config{
		Machine: topology.Flat(4, 32<<20, 1<<20),
		Policy:  runtime.ADWS,
		Seed:    42,
		Tracer:  tr,
	})
	defer p.Close()
	s := New(p, Config{MaxInFlight: 2})
	defer s.Close()

	spin := func(c *runtime.Ctx) error {
		g := c.Group(runtime.GroupHint{})
		for i := 0; i < 16; i++ {
			g.Spawn(1, func(c *runtime.Ctx) {
				g2 := c.Group(runtime.GroupHint{})
				for k := 0; k < 8; k++ {
					g2.Spawn(1, func(*runtime.Ctx) {})
				}
				g2.Wait()
			})
		}
		g.Wait()
		return nil
	}
	const jobs = 4
	ids := make([]int64, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := s.Submit(context.Background(), spin, Hint{Work: 1})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
		if id := j.TraceID(); id != 0 {
			ids = append(ids, id)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	events := tr.Events()
	got := trace.Jobs(events)
	if len(got) != jobs {
		t.Fatalf("trace.Jobs = %v, want %d distinct ids %v", got, jobs, ids)
	}
	total := trace.Summarize(events, 4)
	var tasks, steals, migrations int64
	for _, id := range got {
		js := trace.SummarizeJob(events, 4, id)
		if js.Tasks == 0 {
			t.Errorf("job %d: no task events in slice", id)
		}
		if js.StealAttempts != 0 || js.StealFails != 0 {
			t.Errorf("job %d: slice has %d attempts / %d fails; attempts are unattributable and must be 0",
				id, js.StealAttempts, js.StealFails)
		}
		tasks += js.Tasks
		steals += js.Steals
		migrations += js.Migrations
		for _, ev := range trace.FilterJob(events, id) {
			if ev.Job != id {
				t.Fatalf("FilterJob(%d) returned event of job %d", id, ev.Job)
			}
		}
	}
	if tasks != total.Tasks || steals != total.Steals || migrations != total.Migrations {
		t.Errorf("per-job sums tasks=%d steals=%d migr=%d != totals tasks=%d steals=%d migr=%d",
			tasks, steals, migrations, total.Tasks, total.Steals, total.Migrations)
	}
}

// TestRetention pins the bounded terminal-job history: with RetainDone=3,
// old completed jobs are evicted while newer ones stay addressable.
func TestRetention(t *testing.T) {
	s, _ := newTestServer(t, 2, Config{MaxInFlight: 1, RetainDone: 3})
	var last *Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(context.Background(), noop, Hint{})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
		last = j
	}
	if _, ok := s.Job(1); ok {
		t.Error("job 1 still retained past the cap")
	}
	if _, ok := s.Job(last.ID()); !ok {
		t.Errorf("latest job %d not retained", last.ID())
	}
	if got := len(s.Jobs()); got != 3 {
		t.Errorf("Jobs() returned %d, want 3", got)
	}
	// A retained job must not keep its closure, and with it the job's
	// inputs, reachable.
	jobs := s.Jobs()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		if j.fn != nil {
			t.Errorf("finished job %d still holds its fn", j.ID())
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	s, _ := newTestServer(t, 8, Config{})
	cfg := s.Config()
	if cfg.MaxInFlight != 8 || cfg.MaxQueue != 32 || cfg.RetainDone != 1024 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Queued: "queued", Running: "running", Done: "done",
		Failed: "failed", Canceled: "canceled",
	} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
	if Queued.Terminal() || Running.Terminal() || !Done.Terminal() || !Failed.Terminal() || !Canceled.Terminal() {
		t.Error("Terminal() classification wrong")
	}
}
