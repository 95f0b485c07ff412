package server

import "time"

// Admitter is the admission policy. All methods are called under the
// server's mutex with the live admission state; implementations must not
// block or call back into the server, and may therefore keep
// unsynchronized internal state (e.g. token buckets). Expired queue
// entries are reaped before each call, so the queue depth an Admitter
// sees counts only still-admissible jobs.
type Admitter interface {
	// Admit classifies a new submission given its hints, the submission
	// time, and the current queue depth and running-job count: nil admits
	// it (the server then queues or dispatches it), an error fast-rejects
	// it (returned verbatim from Submit and counted as Rejected).
	Admit(h Hint, now time.Time, queued, running int) error
	// CanDispatch reports whether one more job may start running now,
	// given the current running-job count.
	CanDispatch(running int) bool
	// Next picks the index of the queued job to dispatch next. The queue
	// is in submission order and non-empty; entries expose Hint() and
	// Submitted() without locking. An out-of-range return falls back to
	// the head (index 0).
	Next(now time.Time, queue []*Job) int
}

// BoundedFIFO is the default admission policy: reject once the queue
// holds MaxQueue jobs, run at most MaxInFlight jobs concurrently,
// dispatch in submission order.
type BoundedFIFO struct {
	MaxInFlight, MaxQueue int
}

// Admit fast-rejects with ErrOverloaded when the queue is full.
func (b BoundedFIFO) Admit(h Hint, now time.Time, queued, running int) error {
	if queued >= b.MaxQueue {
		return ErrOverloaded
	}
	return nil
}

// CanDispatch caps concurrently running jobs at MaxInFlight.
func (b BoundedFIFO) CanDispatch(running int) bool { return running < b.MaxInFlight }

// Next dispatches strictly in submission order.
func (b BoundedFIFO) Next(now time.Time, queue []*Job) int { return 0 }
