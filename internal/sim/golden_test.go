package sim

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"github.com/parlab/adws/internal/topology"
)

// goldenDigest pins the simulator's exact output: the order in which tasks
// start and the worker each one runs on, plus every RunResult field, for
// the runs listed in TestGoldenDigest. A change to any scheduling rule, the
// event order or the cost accounting changes it. Refactors that claim to
// keep the simulator's behaviour must leave it unchanged.
const goldenDigest = "6abd7d5f9f68b59c"

// threeLevelTieBody is a root group of two 40 MB halves on ThreeLevel64:
// each half fits a socket (64 MB) but not the socket's aggregate cluster
// capacity (32 MB), so ML-ADWS ties it instead of flattening.
func threeLevelTieBody(seg Segment) Body {
	half := func(s Segment) Body {
		return func(b *B) {
			b.Fork(GroupSpec{Work: 2, Size: s.Bytes(), Children: []ChildSpec{
				{Work: 1, Size: s.Bytes() / 2, Body: balancedTree(s.Slice(0, s.Bytes()/2), 3, 1000)},
				{Work: 1, Size: s.Bytes() / 2, Body: balancedTree(s.Slice(s.Bytes()/2, s.Bytes()/2), 3, 1000)},
			}})
		}
	}
	return func(b *B) {
		b.Fork(GroupSpec{Work: 2, Size: 160 << 20, Children: []ChildSpec{
			{Work: 1, Size: 40 << 20, Body: half(seg.Slice(0, 40<<20))},
			{Work: 1, Size: 40 << 20, Body: half(seg.Slice(40<<20, 40<<20))},
		}})
	}
}

// skewedTree is a binary fork-join tree whose left subtrees carry three
// times the work of their right siblings while the hints claim the
// opposite, so ADWS must rebalance by stealing.
func skewedTree(depth int, leaf float64) Body {
	if depth == 0 {
		return func(b *B) { b.Compute(leaf) }
	}
	return func(b *B) {
		b.Fork(GroupSpec{Work: 4, Children: []ChildSpec{
			{Work: 1, Body: skewedTree(depth-1, 3*leaf)},
			{Work: 3, Body: skewedTree(depth-1, leaf)},
		}})
	}
}

func TestGoldenDigest(t *testing.T) {
	type run struct {
		name string
		cfg  Config
		body func(*Engine) Body
		reps int
	}
	tree := func(bytes int64, depth int, leaf float64) func(*Engine) Body {
		return func(e *Engine) Body {
			return balancedTree(e.Memory().Alloc("d", bytes), depth, leaf)
		}
	}
	var runs []run
	for _, m := range Modes {
		runs = append(runs, run{name: "twolevel16/" + m.String(),
			cfg:  Config{Machine: topology.TwoLevel16(), Mode: m, Seed: 3},
			body: tree(16<<20, 7, 2000), reps: 2})
	}
	runs = append(runs,
		run{name: "threelevel64/ML-ADWS-tie",
			cfg: Config{Machine: topology.ThreeLevel64(), Mode: MLADWS, Seed: 11},
			body: func(e *Engine) Body {
				return threeLevelTieBody(e.Memory().Alloc("d", 80<<20))
			}, reps: 1},
		run{name: "twolevel16/SL-ADWS-nohints",
			cfg:  Config{Machine: topology.TwoLevel16(), Mode: SLADWS, Seed: 4, IgnoreWorkHints: true},
			body: func(*Engine) Body { return skewedTree(7, 100) }, reps: 2},
		run{name: "threelevel64/SL-ADWS-firsttouch",
			cfg:  Config{Machine: topology.ThreeLevel64(), Mode: SLADWS, Seed: 8, NUMA: FirstTouch},
			body: tree(32<<20, 8, 1500), reps: 2},
	)

	h := fnv.New64a()
	for _, r := range runs {
		cfg := r.cfg
		cfg.TraceExec = func(ord int64, w int) { fmt.Fprintf(h, "%d:%d ", ord, w) }
		eng := NewEngine(cfg)
		body := r.body(eng)
		for rep := 0; rep < r.reps; rep++ {
			io.WriteString(h, r.name+"\n")
			res := eng.Run(body)
			fmt.Fprintf(h, "\n%+v\n", res)
			if res.Tasks == 0 {
				t.Errorf("%s rep %d ran no tasks", r.name, rep)
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenDigest {
		t.Errorf("simulator output digest = %s, want %s", got, goldenDigest)
	}
}
