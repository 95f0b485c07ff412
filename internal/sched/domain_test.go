package sched

import (
	"testing"

	"github.com/parlab/adws/internal/topology"
)

func TestDomainCyclicIndexing(t *testing.T) {
	m := topology.TwoLevel16()
	d := Domain{Offset: 3, Caches: m.LevelCaches(1)}
	if d.N() != 4 || d.Level() != 1 {
		t.Fatalf("N, Level = %d, %d, want 4, 1", d.N(), d.Level())
	}
	for l := 3; l < 7; l++ {
		if got := d.Logical(d.Physical(l)); got != l {
			t.Errorf("Logical(Physical(%d)) = %d", l, got)
		}
	}
	if p := d.Physical(-1); p != 3 {
		t.Errorf("Physical(-1) = %d, want 3", p)
	}
	if f := d.Full(); f != (Range{X: 3, Y: 7}) {
		t.Errorf("Full = %v, want [3,7)", f)
	}
	if o := d.Owner(Range{X: 5.5, Y: 6}); o != 1 {
		t.Errorf("Owner([5.5,6)) = %d, want 1", o)
	}
}

func TestDomainRebase(t *testing.T) {
	d := Domain{Offset: 2, Caches: topology.TwoLevel16().LevelCaches(2)[:8]}
	for _, c := range []struct {
		r     Range
		thief int
		want  Range
	}{
		{Range{X: 4.25, Y: 5}, 7, Range{X: 7.25, Y: 8}},     // owner moves, fraction kept
		{Range{X: 2, Y: 5}, 8, Range{X: 7, Y: 10}},          // clamped to the top
		{Range{X: 6.5, Y: 8.5}, 1, Range{X: 2, Y: 4}},       // clamped to the bottom
		{Range{X: 3, Y: 3}, 5, Range{X: 5, Y: 5}},           // empty stays empty
		{Range{X: 2, Y: 10}, 6, Range{X: 2, Y: 10}},         // full width cannot move
		{Range{X: 9.5, Y: 9.75}, 2, Range{X: 2.5, Y: 2.75}}, // top entity to bottom
	} {
		if got := d.Rebase(c.r, c.thief); got != c.want {
			t.Errorf("Rebase(%v, %d) = %v, want %v", c.r, c.thief, got, c.want)
		}
	}
}

func TestInitialLeads(t *testing.T) {
	m := topology.ThreeLevel64()
	leads := InitialLeads(m)
	want := map[int]*topology.Cache{
		0:  m.CacheAt(1, 0), // first worker of socket 0
		32: m.CacheAt(1, 1), // first worker of socket 1
		8:  m.CacheAt(2, 1), // first worker of cluster 1
		1:  m.LeafOf(1),
	}
	for w, c := range want {
		if leads[w] != c {
			t.Errorf("worker %d leads %v, want %v", w, leads[w], c)
		}
	}
	// Every cache has at most one leader, every worker exactly one cache.
	seen := map[*topology.Cache]bool{}
	for w, c := range leads {
		if seen[c] {
			t.Errorf("%v led twice", c)
		}
		seen[c] = true
		if !c.ContainsWorker(w) {
			t.Errorf("worker %d leads %v outside its path", w, c)
		}
	}
	for _, c := range m.LevelCaches(1) {
		if !seen[c] {
			t.Errorf("level-1 cache %v has no leader", c)
		}
	}
}

func TestDecide(t *testing.T) {
	two := topology.TwoLevel16()
	root2 := &Domain{Caches: two.LevelCaches(1), ADWS: true}
	three := topology.ThreeLevel64()
	root3 := &Domain{Caches: three.LevelCaches(1), ADWS: true}
	socket0 := func(leader int, tied bool) *Lead {
		return &Lead{Cache: three.CacheAt(1, 0), Leader: leader, Tied: tied}
	}

	// TwoLevel16: 16 MB over the range [1,3) fits two shared caches, and
	// flattening bottoms out at their eight leaves; worker 5 sits at 1.
	kind, geo, pos := Decide(two, root2, Range{X: 1, Y: 3}, 16<<20, 5,
		&Lead{Cache: two.CacheAt(1, 1), Leader: 4})
	if kind != Flatten || geo.N() != 8 || !geo.Flattened || !geo.ADWS || pos != 1 || geo.Offset != pos ||
		geo.Caches[0] != two.LeafOf(4) || geo.Level() != 2 {
		t.Errorf("fitting group: %v N=%d pos=%d offset=%d, want flatten over 8 leaves at 1",
			kind, geo.N(), pos, geo.Offset)
	}
	// Larger than the range's aggregate capacity and than one cache: stay.
	if kind, _, _ := Decide(two, root2, Range{X: 0, Y: 4}, 64<<20, 0,
		&Lead{Cache: two.CacheAt(1, 0), Leader: 0}); kind != Stay {
		t.Errorf("oversized group: %v, want stay", kind)
	}

	// ThreeLevel64: 40 MB fits a socket but not its clusters' 32 MB, so
	// flattening stops at an intermediate level and the group ties.
	r := Range{X: 0, Y: 1}
	kind, geo, pos = Decide(three, root3, r, 40<<20, 0, socket0(0, false))
	if kind != Tie || geo.N() != 4 || geo.Flattened || pos != 0 || geo.Level() != 2 {
		t.Errorf("socket-sized group: %v N=%d pos=%d, want tie over 4 clusters at 0", kind, geo.N(), pos)
	}
	// A worker that no longer leads the cache, or a cache that is already
	// tied, does not tie.
	if kind, _, _ := Decide(three, root3, r, 40<<20, 0, socket0(3, false)); kind != Stay {
		t.Errorf("non-leader: %v, want stay", kind)
	}
	if kind, _, _ := Decide(three, root3, r, 40<<20, 0, socket0(0, true)); kind != Stay {
		t.Errorf("already tied: %v, want stay", kind)
	}
	// ML-WS never flattens, but ties.
	ws := &Domain{Caches: two.LevelCaches(1)}
	if kind, _, _ := Decide(two, ws, Range{}, 4<<20, 0, &Lead{Cache: two.CacheAt(1, 0), Leader: 0}); kind != Tie {
		t.Errorf("ML-WS group fitting a cache: %v, want tie", kind)
	}
	// No size hint, or inside a flattened domain: stay.
	if kind, _, _ := Decide(three, root3, r, 0, 0, socket0(0, false)); kind != Stay {
		t.Errorf("no size hint: %v, want stay", kind)
	}
	flat := &Domain{Caches: three.LevelCaches(3)[:8], ADWS: true, Flattened: true}
	if kind, _, _ := Decide(three, flat, r, 1<<20, 0, socket0(0, false)); kind != Stay {
		t.Errorf("flattened domain: %v, want stay", kind)
	}
}

func TestOpenGroup(t *testing.T) {
	parent := NewRootGroup(Range{X: 0, Y: 8})
	// A non-cross-worker group opens no node; children keep the anchor.
	node, g, d := OpenGroup(Range{X: 2, Y: 2.5}, parent, 3, false)
	if node != nil || g != parent || d != 3 {
		t.Errorf("local group: %v %v %d, want nil, parent, 3", node, g, d)
	}
	// ... unless the group opened a new domain.
	if node, g, d = OpenGroup(Range{X: 2, Y: 2.5}, parent, 3, true); node != nil || g != nil || d != 0 {
		t.Errorf("fresh local group: %v %v %d, want nil, nil, 0", node, g, d)
	}
	// A cross-worker group nests under the parent's node.
	node, g, d = OpenGroup(Range{X: 0, Y: 4}, parent, 0, false)
	if node == nil || g != node || node.Parent() != parent || d != 1 {
		t.Errorf("cross group: %v %v %d, want a child node of depth 1", node, g, d)
	}
	// ... or starts a new tree when fresh.
	node, _, d = OpenGroup(Range{X: 0, Y: 4}, parent, 0, true)
	if node == nil || node.Parent() != nil || d != 0 {
		t.Errorf("fresh cross group: %v %d, want a root node of depth 0", node, d)
	}
}

func TestPlanSteal(t *testing.T) {
	d := &Domain{Caches: topology.TwoLevel16().LevelCaches(1)}
	root := NewRootGroup(d.Full())
	if _, ok := PlanSteal(d, nil, 1, 0, 4); ok {
		t.Error("entity without an anchor planned a steal")
	}
	if _, ok := PlanSteal(d, root, 1, 0, 4); ok {
		t.Error("entity under a non-dominant group planned a steal")
	}
	root.CrossTaskCompleted()
	one := &Domain{Caches: d.Caches[:1]}
	if _, ok := PlanSteal(one, NewRootGroup(Range{X: 0, Y: 1}), 0, 0, 4); ok {
		t.Error("single-entity domain planned a steal")
	}
	sp, ok := PlanSteal(d, root, 1, 2, 3)
	if !ok {
		t.Fatal("dominated entity planned no steal")
	}
	// [0,4) gives victims 0..4 inclusive minus the thief itself.
	if sp.Self != 1 || sp.Victims != 4 || sp.Tries != 3 || sp.Depth != 2 || sp.Lo != 0 || sp.Hi != 5 {
		t.Errorf("plan = %+v", sp)
	}
	rng := NewRNG(1, 0)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v, vp, ok := sp.Pick(rng)
		if v == 1 || v < 0 || v > 4 || vp != v%4 || !ok {
			t.Fatalf("Pick = %d, %d, %v", v, vp, ok)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("victims drawn = %v, want all of 0, 2, 3, 4", seen)
	}
	// Logical victim 4 wraps onto physical 0: the thief at 0 must skip it.
	sp0, _ := PlanSteal(d, root, 0, 0, 4)
	for i := 0; i < 200; i++ {
		if v, vp, ok := sp0.Pick(rng); ok == (vp == 0) || (v == 4) == ok {
			t.Fatalf("Pick = %d, %d, %v: the wrap onto the thief must be skipped", v, vp, ok)
		}
	}
}

func TestRNGVictim(t *testing.T) {
	r := NewRNG(7, 0)
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		v := r.Victim(2, 5)
		if v == 2 || v < 0 || v >= 5 {
			t.Fatalf("Victim(2, 5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("victims drawn = %v, want all of 0, 1, 3, 4", seen)
	}
}
