package sched

import "github.com/parlab/adws/internal/topology"

// Domain is the placement geometry of one single-level scheduling arena:
// which caches its entities stand for, where its distribution ranges live,
// and which policy it runs. The runtime and the simulator embed it in
// their domains, so both map ranges to entities, rebase stolen tasks, plan
// steals and open multi-level domains with the same code.
//
// A domain's ranges live on a logically unwrapped axis [Offset, Offset+N)
// with N = len(Caches), and physical entity = logical mod N. A tie by a
// leader whose cache is not the first child starts its instance at its own
// position; the cyclic mapping keeps the paper's floor arithmetic intact.
type Domain struct {
	Offset int
	// Caches are the caches the entities stand for, in physical order: the
	// leaf caches in worker-level domains, a cache's children in
	// cache-level ones. All are at one level.
	Caches []*topology.Cache
	// ADWS selects deterministic task mapping; false is conventional
	// random work stealing.
	ADWS bool
	// Flattened marks a worker-level domain opened by cache-hierarchy
	// flattening; no further multi-level decisions apply inside it.
	Flattened bool
}

// N returns the number of entities.
func (d *Domain) N() int { return len(d.Caches) }

// Level returns the cache level of the entities.
func (d *Domain) Level() int { return d.Caches[0].Level }

// Physical maps a logical entity index to a physical one.
func (d *Domain) Physical(logical int) int {
	n := d.N()
	p := logical % n
	if p < 0 {
		p += n
	}
	return p
}

// Logical maps a physical entity index to its canonical logical index in
// [Offset, Offset+N).
func (d *Domain) Logical(physical int) int {
	n := d.N()
	l := physical
	for l < d.Offset {
		l += n
	}
	for l >= d.Offset+n {
		l -= n
	}
	return l
}

// Full returns the distribution range covering the whole domain.
func (d *Domain) Full() Range { return FullRange(d.Offset, d.N()) }

// Owner returns the physical entity that owns (executes) a task with
// range r.
func (d *Domain) Owner(r Range) int { return d.Physical(r.Owner()) }

// Rebase re-owns a stolen task's distribution range r onto the thief at
// logical index thief: the range keeps its width but its owner becomes the
// thief (clamped to the domain), so the stolen subtree unfolds around the
// thief while staying deterministic below (see DESIGN.md on steal
// semantics).
func (d *Domain) Rebase(r Range, thief int) Range {
	width := r.Width()
	newX := float64(thief) + (r.X - float64(r.Owner()))
	if maxX := float64(d.Offset+d.N()) - width; newX > maxX {
		newX = maxX
	}
	if newX < float64(d.Offset) {
		newX = float64(d.Offset)
	}
	return Range{X: newX, Y: newX + width}
}

// Lead is the multi-level state of one cache that the placement rules
// read (§4.2). Both substrates embed it in their per-cache state.
type Lead struct {
	Cache *topology.Cache
	// Leader is the worker currently leading the cache (-1 if absent).
	Leader int
	// Tied reports that a task group is tied to the cache.
	Tied bool
}

// InitialLeads performs the initial bottom-up leader election of
// multi-level scheduling (§4.2): every worker leads its leaf cache, then,
// level by level up to level 1, each cache is led by its first child's
// leader, who leaves that child. It returns the one cache each worker
// leads afterwards; every other cache starts without a leader.
func InitialLeads(m *topology.Machine) []*topology.Cache {
	out := make([]*topology.Cache, m.NumWorkers())
	for w := range out {
		c := m.LeafOf(w)
		for c.Level > 1 && c.Parent().Children()[0] == c {
			c = c.Parent()
		}
		out[w] = c
	}
	return out
}

// Decision is the outcome of Decide.
type Decision int

const (
	// Stay keeps the task group in its current domain.
	Stay Decision = iota
	// Flatten opens a flattened worker-level domain (Fig. 15).
	Flatten
	// Tie ties the group to the worker's cache and opens a domain over
	// the cache's children (Fig. 13).
	Tie
)

// Decide applies the multi-level scheduling decisions for a task group
// with working-set size hint size, opened by worker w from a task with
// range r in domain d; lead is the cache w leads. It composes Fig. 13's
// EXECUTETASKGROUP with Fig. 15's flattening:
//
// Cache-hierarchy flattening is checked first (§5: a working set that
// fits the aggregate capacity of the caches in the group's distribution
// range is scheduled by a single-level scheduler over their descendants;
// "otherwise, we continue to schedule TG at the current cache level").
// It applies to ADWS cache-level domains only (§5: flattening other
// strategies has limited benefit, and WS tasks carry no range to derive
// the span from). When flattening bottoms out at the leaf level, a
// flattened worker-level domain runs the group. When it stops at an
// intermediate level (only possible on machines with three or more cache
// levels), the group is instead tied to w's cache when it fits and w
// still leads it, which descends exactly one level and lets multi-level
// scheduling continue below (documented deviation, DESIGN.md). On
// two-level machines like the paper's, leaf flattening subsumes tying.
//
// For Flatten and Tie it returns the new domain's geometry and w's
// physical entity in it.
func Decide(m *topology.Machine, d *Domain, r Range, size int64, w int, lead *Lead) (Decision, Domain, int) {
	if size <= 0 || d.Flattened {
		return Stay, Domain{}, 0
	}
	if d.ADWS && d.Level() < m.MaxLevel() {
		lo, hi := r.Owner(), max(r.Last()-1, r.Owner())
		var cand []*topology.Cache
		for l := lo; l <= hi && l-lo < d.N(); l++ {
			cand = append(cand, d.Caches[d.Physical(l)])
		}
		if lnext, caches := FlattenOverCaches(m, size, d.Level(), cand); caches != nil && lnext == m.MaxLevel() {
			// Every covered worker acts for its own leaf; the range starts
			// at the deciding worker (entity 0 if it is not covered, which
			// ranges produced by ADWS never cause).
			pos := 0
			for i, c := range caches {
				if c.FirstWorker() == w {
					pos = i
				}
			}
			return Flatten, Domain{Offset: pos, Caches: caches, ADWS: d.ADWS, Flattened: true}, pos
		}
	}
	if c := lead.Cache; c.Level < m.MaxLevel() && !lead.Tied && lead.Leader == w && size <= c.Capacity {
		children := c.Children()
		pos := m.CacheOfWorkerAtLevel(w, c.Level+1).Index - children[0].Index
		return Tie, Domain{Offset: pos, Caches: children, ADWS: d.ADWS}, pos
	}
	return Stay, Domain{}, 0
}

// StealPlan is one round of ADWS steal attempts by one entity (paper
// Fig. 11 and §3.2): the dominant-group steal range with its boundary
// restrictions, the thief's logical index, and how many victims to probe.
type StealPlan struct {
	StealRange
	// Self is the thief's logical index.
	Self int
	// Victims is the number of candidate victims other than Self.
	Victims int
	// Tries bounds the victims probed this round.
	Tries int
	// Depth is the minimum queue depth that may be stolen from: the
	// dominant group's depth, raised to the caller's floor.
	Depth int
	// Lo and Hi carry the inclusive steal range [Low, High] half-open, as
	// trace events report it.
	Lo, Hi float64

	d    *Domain
	phys int
}

// PlanSteal plans a steal round for the entity at physical index phys of
// ADWS domain d, whose walk in the group tree is anchored at anchor. Only
// queues at depth >= minDepth may be stolen from, and at most maxTries
// victims are probed. ok is false when the entity must not steal: it is
// not dominated by any group (Fig. 11 line 40), so deterministically
// migrated tasks are not stolen too soon, or it has no victim.
func PlanSteal(d *Domain, anchor *GroupNode, phys, minDepth, maxTries int) (StealPlan, bool) {
	if anchor == nil || d.N() <= 1 {
		return StealPlan{}, false
	}
	self := d.Logical(phys)
	sr, ok := CurrentStealRange(anchor, self)
	if !ok {
		return StealPlan{}, false
	}
	nv := sr.NumVictims(self)
	if nv <= 0 {
		return StealPlan{}, false
	}
	return StealPlan{StealRange: sr, Self: self, Victims: nv, Tries: min(maxTries, nv),
		Depth: max(sr.MinDepth, minDepth), Lo: float64(sr.Low), Hi: float64(sr.High) + 1,
		d: d, phys: phys}, true
}

// Pick draws the next victim uniformly from the steal range: its logical
// index v and physical index vp. ok is false when the cyclic wrap maps the
// victim onto the thief itself; the probe is then wasted.
func (p *StealPlan) Pick(rng *RNG) (v, vp int, ok bool) {
	v = p.Victim(p.Self, rng.Intn(p.Victims))
	vp = p.d.Physical(v)
	return v, vp, vp != p.phys
}
