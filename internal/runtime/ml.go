package runtime

import (
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/trace"
)

// traceBoundary records a multi-level boundary crossing (tie/flatten and
// their teardowns) for worker w over domain d at cache level `level`.
func (p *Pool) traceBoundary(w *worker, kind int32, d *domain, level int) {
	if !w.wantEv(trace.EvBoundary, int32(level)) {
		return
	}
	var id int64
	if d != nil {
		id = d.id
	}
	w.emit(trace.Event{Type: trace.EvBoundary, Time: now(),
		Victim: kind, Depth: int32(level), Task: id}, int32(level))
}

// initTopology builds the root domain and, for multi-level policies, the
// per-cache state with the initial leader election (§4.2). It runs before
// the workers start, so the ml structures are still private.
//
//adws:requires(ml)
func (p *Pool) initTopology() {
	m := p.machine
	adws := p.policy.isADWS()
	if !p.policy.isML() {
		p.rootDom = p.newDomain(sched.Domain{Caches: m.LevelCaches(m.MaxLevel()), ADWS: adws})
		return
	}
	p.ml.caches = make([][]*mlCache, m.NumLevels())
	for level := 1; level < m.NumLevels(); level++ {
		for _, c := range m.LevelCaches(level) {
			p.ml.caches[level] = append(p.ml.caches[level], &mlCache{Lead: sched.Lead{Cache: c, Leader: -1}})
		}
	}
	for wid, c := range sched.InitialLeads(m) {
		mc := p.ml.caches[c.Level][c.Index]
		mc.Leader = wid
		p.workers[wid].leads = mc
	}
	p.rootDom = p.newDomain(sched.Domain{Caches: m.LevelCaches(1), ADWS: adws})
}

// mlDecide applies the multi-level scheduling decisions (sched.Decide) to
// a task group with working-set size hint size opened by task cur on
// worker w. It returns the domain the decision opened, the parent range in
// it, and the parent's entity in it, or nils to stay.
func (p *Pool) mlDecide(w *worker, cur *task, size int64, g *taskGroup) (*domain, sched.Range, *entity) {
	p.ml.Lock()
	defer p.ml.Unlock()
	var d *domain
	kind, geo, pos := sched.Decide(p.machine, &cur.dom.Domain, cur.rng, size, w.id, &w.leads.Lead)
	switch kind {
	case sched.Stay:
		return nil, sched.Range{}, nil
	case sched.Flatten:
		d = p.flattenLocked(w, geo, g)
	case sched.Tie:
		d = p.tieLocked(w, geo, pos, g)
	}
	return d, d.Full(), d.entities[pos]
}

// tieLocked ties g to the cache w leads, opening the domain over its
// children in which w's child cache sits at physical position pos; the
// caller holds p.ml.
//
//adws:requires(ml)
func (p *Pool) tieLocked(w *worker, geo sched.Domain, pos int, g *taskGroup) *domain {
	c := w.leads
	c.Tied = true
	g.tiedTo = c
	d := p.newDomain(geo)
	c.childDomain = d

	// Leadership descends (Fig. 13 line 56).
	mcw := d.entities[pos].cache
	c.Leader = -1
	mcw.Leader = w.id
	w.leads = mcw

	p.traceBoundary(w, trace.BoundaryTie, d, c.Cache.Level)
	return d
}

// flattenLocked opens a flattened worker-level domain; the caller holds
// p.ml.
//
//adws:requires(ml)
func (p *Pool) flattenLocked(w *worker, geo sched.Domain, g *taskGroup) *domain {
	d := p.newDomain(geo)
	g.flattened = d
	// Publish only after the domain is fully constructed: workers read
	// d.entities/d.Offset without holding p.ml once an entity appears in
	// their fdEnts (the per-worker fdMu gives the happens-before edge).
	for _, ent := range d.entities {
		ww := p.workers[ent.workerID]
		ww.fdMu.Lock()
		ww.fdEnts = append(ww.fdEnts, ent)
		ww.fdMu.Unlock()
	}
	// Wake the parked participants so they pick up their flattened
	// entities; non-members need not stir.
	if p.nparked.Load() != 0 {
		for _, ent := range d.entities {
			if ent.workerID != w.id {
				p.tryWake(p.workers[ent.workerID])
			}
		}
	}
	p.traceBoundary(w, trace.BoundaryFlatten, d, d.Level())
	return d
}

// groupTeardown undoes a tie or flattening when the group's Wait completes
// on worker w (the worker executing the continuation becomes the leader of
// the untied cache, Fig. 13 line 58).
func (p *Pool) groupTeardown(g *taskGroup, w *worker) {
	p.ml.Lock()
	defer p.ml.Unlock()
	if c := g.tiedTo; c != nil {
		g.tiedTo = nil
		c.Tied = false
		if c.childDomain != nil {
			p.traceBoundary(w, trace.BoundaryUntie, c.childDomain, c.Cache.Level)
			c.childDomain.closed.Store(true)
			c.childDomain = nil
		}
		if w.leads != c {
			w.leads.Leader = -1
		}
		c.Leader = w.id
		w.leads = c
	}
	if d := g.flattened; d != nil {
		g.flattened = nil
		p.traceBoundary(w, trace.BoundaryUnflatten, d, d.Level())
		d.closed.Store(true)
		// Participants drop their entities lazily in candidates().
	}
}
