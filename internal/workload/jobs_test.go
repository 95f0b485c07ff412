package workload

import (
	"context"
	"testing"
	"time"

	"github.com/parlab/adws"
)

// TestNewJobAllNames runs every named workload at a small size on a real
// pool; each body carries its own result verification, so a nil Job.Err
// means the computation was correct.
func TestNewJobAllNames(t *testing.T) {
	sizes := map[string]int{
		"quicksort": 10_000,
		"kdtree":    5_000,
		"rrm":       10_000,
		"matmul":    48,
		"heat2d":    48,
		"fib":       20,
	}
	pool, err := adws.NewPool(adws.WithScheduler(adws.ADWS), adws.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, name := range JobNames() {
		wj, err := NewJob(name, sizes[name], 3)
		if err != nil {
			t.Fatalf("NewJob(%q): %v", name, err)
		}
		if wj.Name != name || wj.Work <= 0 {
			t.Errorf("NewJob(%q) = %+v", name, wj)
		}
		j, err := pool.Submit(context.Background(), wj.Body, wj.Hint())
		if err != nil {
			t.Fatalf("submit %q: %v", name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := j.Wait(ctx); err != nil {
			t.Errorf("%q: %v", name, err)
		}
		cancel()
	}
}

func TestNewJobDefaultsAndErrors(t *testing.T) {
	for _, name := range JobNames() {
		wj, err := NewJob(name, 0, 1)
		if err != nil {
			t.Errorf("NewJob(%q, 0): %v", name, err)
		}
		if wj.N <= 0 {
			t.Errorf("NewJob(%q, 0): default N = %d", name, wj.N)
		}
	}
	if _, err := NewJob("no-such-workload", 100, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := NewJob("fib", 60, 1); err == nil {
		t.Error("oversized fib accepted")
	}
	// MaxJobBytes: every sized workload accepts its largest n, whose Size
	// hint fits the budget, and rejects the next one before allocating.
	limits := map[string]int{
		"quicksort": MaxJobBytes / 16,
		"kdtree":    MaxJobBytes / 48,
		"rrm":       MaxJobBytes / 8,
		"matmul":    2364, // floor(sqrt(MaxJobBytes / 12))
		"heat2d":    2048, // sqrt(MaxJobBytes / 16)
	}
	for name, limit := range limits {
		wj, err := NewJob(name, limit, 1)
		if err != nil {
			t.Errorf("NewJob(%q, %d) at the limit: %v", name, limit, err)
		} else if wj.Size > MaxJobBytes {
			t.Errorf("NewJob(%q, %d): Size %d exceeds MaxJobBytes %d", name, limit, wj.Size, MaxJobBytes)
		}
		for _, n := range []int{limit + 1, 1 << 40} {
			if _, err := NewJob(name, n, 1); err == nil {
				t.Errorf("NewJob(%q, %d) accepted beyond MaxJobBytes", name, n)
			}
		}
	}
	// The benchmark's serving mix stays accepted.
	for name, n := range map[string]int{"rrm": 20000, "heat2d": 128, "quicksort": 10000, "matmul": 64} {
		if _, err := NewJob(name, n, 1); err != nil {
			t.Errorf("NewJob(%q, %d): %v", name, n, err)
		}
	}
}
