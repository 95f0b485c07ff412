package workload

import (
	"fmt"
	"math"
	"sort"

	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/kernels"
	"github.com/parlab/adws/internal/sched"
)

// Job is one named real-runtime workload instance, ready for submission
// through the job-serving layer: a root-task body over the real kernels
// (internal/kernels) with a built-in self-check, plus default admission
// hints. Contrast with Instance, the simulator twin of the same
// benchmarks.
type Job struct {
	// Name identifies the workload (see JobNames).
	Name string
	// N is the problem size the instance was built with.
	N int
	// Work is the default relative-work hint (arbitrary units,
	// comparable across workloads: roughly element-operations).
	Work float64
	// Size is the default working-set-size hint in bytes.
	Size int64
	// Body runs the workload and returns a verification error if the
	// computed result is wrong. One Body value is good for one run.
	Body func(*adws.Ctx) error
}

// Hint returns the job's default admission hints.
func (j Job) Hint() adws.JobHint { return adws.JobHint{Work: j.Work, Size: j.Size} }

// JobNames lists the available real-runtime job workloads.
func JobNames() []string {
	return []string{"quicksort", "kdtree", "rrm", "matmul", "heat2d", "fib"}
}

// MaxJobBytes bounds one job's arrays: NewJob rejects any n whose Size
// hint (the bytes of the input and output arrays it allocates, row
// padding aside) would exceed it, so a single request cannot make a
// server allocate without limit. The defaults use at most 10 MB.
const MaxJobBytes = 64 << 20

// checkSize rejects n when the job's arrays, perUnit bytes per element
// (or per cell of an n×n grid when square), would exceed MaxJobBytes.
func checkSize(name string, n, perUnit int, square bool) error {
	limit := MaxJobBytes / perUnit
	if square {
		limit = int(math.Sqrt(float64(limit)))
	}
	if n > limit {
		return fmt.Errorf("workload: %s size %d too large (max %d within %d bytes)", name, n, limit, MaxJobBytes)
	}
	return nil
}

// NewJob builds a named real-runtime workload instance of problem size n
// (elements, points, matrix side, or grid side; n <= 0 selects a default)
// with deterministic pseudo-random input drawn from seed. Sizes beyond
// MaxJobBytes (or fib beyond 40) are an error.
func NewJob(name string, n int, seed uint64) (Job, error) {
	rng := sched.NewRNG(seed^0x5EED50B5, 0)
	switch name {
	case "quicksort":
		if n <= 0 {
			n = 500_000
		}
		if err := checkSize(name, n, 16, false); err != nil {
			return Job{}, err
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.Float64()
		}
		body := kernels.QuicksortBody(data)
		return Job{Name: name, N: n, Work: float64(n) * math.Log2(float64(n)+2), Size: int64(2 * n * 8),
			Body: func(c *adws.Ctx) error {
				body(c)
				if !sort.Float64sAreSorted(data) {
					return fmt.Errorf("quicksort: output not sorted")
				}
				return nil
			}}, nil
	case "kdtree":
		if n <= 0 {
			n = 200_000
		}
		if err := checkSize(name, n, 48, false); err != nil {
			return Job{}, err
		}
		pts := make([]kernels.KDPoint, n)
		for i := range pts {
			pts[i] = kernels.KDPoint{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		}
		var root *kernels.KDNode
		body := kernels.KDTreeBody(pts, &root)
		return Job{Name: name, N: n, Work: float64(n) * math.Log2(float64(n)+2), Size: int64(2 * n * 24),
			Body: func(c *adws.Ctx) error {
				body(c)
				if root == nil {
					return fmt.Errorf("kdtree: no root built")
				}
				return nil
			}}, nil
	case "rrm":
		if n <= 0 {
			n = 500_000
		}
		if err := checkSize(name, n, 8, false); err != nil {
			return Job{}, err
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = 1
		}
		body := kernels.RRMBody(data, 1)
		return Job{Name: name, N: n, Work: 3 * float64(n), Size: int64(n * 8),
			Body: func(c *adws.Ctx) error {
				body(c)
				for i, v := range data {
					if v <= 1 {
						return fmt.Errorf("rrm: element %d not mapped (%v)", i, v)
					}
				}
				return nil
			}}, nil
	case "matmul":
		if n <= 0 {
			n = 256
		}
		if err := checkSize(name, n, 12, true); err != nil {
			return Job{}, err
		}
		A, B, C := kernels.NewMatrix(n), kernels.NewMatrix(n), kernels.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				A.Set(i, j, float32(rng.Float64()-0.5))
				B.Set(i, j, float32(rng.Float64()-0.5))
			}
		}
		body := kernels.MatMulBody(C, A, B)
		nn := float64(n)
		return Job{Name: name, N: n, Work: 2 * nn * nn * nn, Size: int64(3 * n * n * 4),
			Body: func(c *adws.Ctx) error {
				body(c)
				// Spot-check one element against the naive product.
				var want float32
				for k := 0; k < n; k++ {
					want += A.At(n/2, k) * B.At(k, n/3)
				}
				if got := C.At(n/2, n/3); math.Abs(float64(got-want)) > 1e-2 {
					return fmt.Errorf("matmul: C[%d][%d] = %v, want %v", n/2, n/3, got, want)
				}
				return nil
			}}, nil
	case "heat2d":
		if n <= 0 {
			n = 512
		}
		if err := checkSize(name, n, 16, true); err != nil {
			return Job{}, err
		}
		const iters = 4
		src, dst := kernels.NewGrid(n), kernels.NewGrid(n)
		src.Set(n/2, n/2, 1000)
		var out *kernels.Grid
		body := kernels.Heat2DBody(src, dst, iters, &out)
		return Job{Name: name, N: n, Work: float64(iters) * float64(n) * float64(n), Size: int64(2 * n * n * 8),
			Body: func(c *adws.Ctx) error {
				body(c)
				var sum float64
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						sum += out.At(i, j)
					}
				}
				if sum <= 0 {
					return fmt.Errorf("heat2d: heat vanished")
				}
				return nil
			}}, nil
	case "fib":
		if n <= 0 {
			n = 27
		}
		if n > 40 {
			return Job{}, fmt.Errorf("workload: fib size %d too large (max 40)", n)
		}
		want := serialFib(n)
		return Job{Name: name, N: n, Work: float64(want + 1), Size: 0,
			Body: func(c *adws.Ctx) error {
				if got := parFib(c, n); got != want {
					return fmt.Errorf("fib(%d) = %d, want %d", n, got, want)
				}
				return nil
			}}, nil
	default:
		return Job{}, fmt.Errorf("workload: unknown job %q (have %v)", name, JobNames())
	}
}

func serialFib(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func parFib(c *adws.Ctx, n int) int64 {
	if n < 2 {
		return int64(n)
	}
	if n < 16 {
		return parFib(c, n-1) + parFib(c, n-2)
	}
	var a, b int64
	g := c.Group(adws.GroupHint{Work: 3})
	g.Spawn(2, func(c *adws.Ctx) { a = parFib(c, n-1) })
	g.Spawn(1, func(c *adws.Ctx) { b = parFib(c, n-2) })
	g.Wait()
	return a + b
}
