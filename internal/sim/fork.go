package sim

import (
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/trace"
)

// traceBoundary mirrors the runtime's multi-level boundary events.
func (e *Engine) traceBoundary(worker int, kind int32, d *domain, level int) {
	tr := e.cfg.Tracer
	if tr == nil {
		return
	}
	var id int64
	if d != nil {
		id = int64(d.id)
	}
	tr.Record(worker, trace.Event{Type: trace.EvBoundary, Time: e.vt(),
		Victim: kind, Depth: int32(level), Task: id})
}

// fork executes a task group step of task t on worker w: it applies the
// multi-level tie/flatten decisions, spawns the children under the
// domain's policy, and either suspends t or starts an inline child.
func (e *Engine) fork(w *worker, t *Task, spec *GroupSpec) {
	if len(spec.Children) == 0 {
		e.schedule(w, e.now)
		return
	}
	if e.cfg.Mode == SB {
		e.forkSB(w, t, spec)
		return
	}

	ag := &activeGroup{spec: spec, parent: t, remaining: len(spec.Children)}
	dom, parentRange, parentEnt := t.dom, t.rng, t.ent
	fresh := false
	var oh float64

	if e.cfg.Mode.IsMultiLevel() {
		if nd, pos := e.mlDecide(w, t, spec.Size, ag); nd != nil {
			dom, parentRange, parentEnt, fresh = nd, nd.Full(), nd.entities[pos], true
			oh += e.costs.TieOverhead
		}
	}

	var inline *Task
	if dom.ADWS {
		inline = e.spawnADWS(w, t, ag, dom, parentRange, parentEnt, fresh, &oh)
	} else {
		inline = e.spawnWS(ag, dom, parentEnt, &oh)
	}

	w.overheadTime += oh
	if tr := e.cfg.Tracer; tr != nil {
		tr.Record(w.id, trace.Event{Type: trace.EvWaitEnter, Time: e.vt(),
			Task: e.ordinal(t), Depth: int32(t.depth)})
	}
	if inline != nil {
		inline.execWorker = w.id
		w.current = inline
		if inline.group != nil && inline.ent != nil {
			inline.ent.lastGroup = inline.group
		}
	} else {
		w.current = nil
	}
	e.wakeDomain(dom)
	e.schedule(w, e.now+oh)
}

// spawnADWS implements deterministic task mapping (paper Fig. 7): split the
// parent range by work hints, migrate type-(1) children, keep type-(3)
// children locally, and return the type-(2) child for immediate execution.
func (e *Engine) spawnADWS(w *worker, t *Task, ag *activeGroup, dom *domain, parentRange sched.Range, parentEnt *entity, fresh bool, oh *float64) *Task {
	spec := ag.spec
	iExec := dom.Logical(parentEnt.idx)
	node, childGroup, childDepth := sched.OpenGroup(parentRange, t.group, t.depth, fresh)
	ag.node = node

	var ranges []sched.Range
	if e.cfg.IgnoreWorkHints || spec.Work <= 0 {
		ranges = sched.SplitEqual(parentRange, len(spec.Children))
	} else {
		hints := make([]float64, len(spec.Children))
		for k, c := range spec.Children {
			hints[k] = c.Work
		}
		ranges = sched.SplitByHints(parentRange, spec.Work, hints)
	}

	var inline *Task
	for k, cs := range spec.Children {
		child := e.newTask(cs.Body)
		child.dom = dom
		child.rng = ranges[k]
		child.group = childGroup
		child.depth = childDepth
		child.parentGroup = ag
		child.crossWorker = node != nil && ranges[k].IsCrossWorker()
		*oh += e.costs.SpawnOverhead
		switch sched.Classify(ranges[k], iExec) {
		case sched.KindMigrate:
			ent := dom.entities[dom.Owner(ranges[k])]
			child.ent = ent
			child.inMigrationQueue = true
			if tr := e.cfg.Tracer; tr != nil {
				tr.Record(w.id, trace.Event{Type: trace.EvMigration, Time: e.vt(),
					Self: int32(iExec), Victim: int32(ranges[k].Owner()),
					Task: e.ordinal(child), Depth: int32(childDepth),
					RangeLo: ranges[k].X, RangeHi: ranges[k].Y})
			}
			ent.queues.PushMigration(childDepth, child)
			*oh += e.costs.MigrateOverhead
			w.migrationsOut++
			if aw := ent.actingWorker(); aw >= 0 {
				e.wake(e.workers[aw], e.now)
			}
		case sched.KindExecute:
			child.ent = parentEnt
			inline = child
		case sched.KindLocal:
			child.ent = parentEnt
			child.inMigrationQueue = t.inMigrationQueue && !fresh
			if child.inMigrationQueue {
				parentEnt.queues.PushMigration(childDepth, child)
			} else {
				parentEnt.queues.PushPrimary(childDepth, child)
			}
		}
	}
	return inline
}

// spawnWS implements conventional work-first random work stealing: the
// first child is executed immediately and the rest are pushed onto the
// spawning entity's deque so that the owner pops them in declaration order
// while thieves steal the oldest.
func (e *Engine) spawnWS(ag *activeGroup, dom *domain, parentEnt *entity, oh *float64) *Task {
	spec := ag.spec
	tasks := make([]*Task, len(spec.Children))
	for k, cs := range spec.Children {
		child := e.newTask(cs.Body)
		child.dom = dom
		child.parentGroup = ag
		child.ent = parentEnt
		tasks[k] = child
		*oh += e.costs.SpawnOverhead
	}
	for k := len(tasks) - 1; k >= 1; k-- {
		parentEnt.queues.PushPrimary(0, tasks[k])
	}
	return tasks[0]
}

// mlDecide applies the multi-level scheduling decisions (sched.Decide) to
// a task group with working-set size hint size opened by task t on worker
// w. It returns the domain the decision opened and the parent's physical
// entity in it, or nil to stay.
func (e *Engine) mlDecide(w *worker, t *Task, size int64, ag *activeGroup) (*domain, int) {
	switch kind, geo, pos := sched.Decide(e.machine, &t.dom.Domain, t.rng, size, w.id, &w.leads.Lead); kind {
	case sched.Flatten:
		e.flattens++
		return e.flatten(w, geo, ag), pos
	case sched.Tie:
		e.ties++
		return e.tie(w, geo, pos, ag), pos
	}
	return nil, 0
}

// tie ties ag to the cache w leads (Fig. 13): the leading worker descends
// to lead the child cache on its path, at physical position pos of the
// fresh domain over the cache's children that schedules ag's children.
func (e *Engine) tie(w *worker, geo sched.Domain, pos int, ag *activeGroup) *domain {
	c := w.leads
	c.Tied = true
	ag.tiedTo = c
	d := e.newDomain(geo)
	c.childDomain = d

	// Leadership descends (Fig. 13 line 56).
	mcw := d.entities[pos].cache
	c.Leader = -1
	mcw.Leader = w.id
	w.leads = mcw

	e.traceBoundary(w.id, trace.BoundaryTie, d, c.Cache.Level)
	return d
}

// untie restores cache c when its tied group completes (Fig. 13 line 58):
// the worker that will execute the continuation becomes c's leader again.
func (e *Engine) untie(ag *activeGroup) {
	c := ag.tiedTo
	ag.tiedTo = nil
	c.Tied = false
	tornDown := c.childDomain
	if c.childDomain != nil {
		c.childDomain.closed = true
		c.childDomain = nil
	}
	wid := ag.parent.execWorker
	w := e.workers[wid]
	if w.leads != c {
		w.leads.Leader = -1
	}
	c.Leader = wid
	w.leads = c
	e.traceBoundary(wid, trace.BoundaryUntie, tornDown, c.Cache.Level)
}

// flatten creates a flattened leaf-level domain (paper Fig. 15). Every
// covered worker participates directly; leadership is untouched, so the
// spanned caches resume their roles when the flattened group completes.
func (e *Engine) flatten(w *worker, geo sched.Domain, ag *activeGroup) *domain {
	d := e.newDomain(geo)
	for _, ent := range d.entities {
		e.workers[ent.worker].fdEnts = append(e.workers[ent.worker].fdEnts, ent)
	}
	ag.flattened = d
	e.traceBoundary(w.id, trace.BoundaryFlatten, d, d.Level())
	return d
}

// unflatten tears down a flattened domain when its group completes.
func (e *Engine) unflatten(ag *activeGroup) {
	d := ag.flattened
	ag.flattened = nil
	d.closed = true
	e.traceBoundary(ag.parent.execWorker, trace.BoundaryUnflatten, d, d.Level())
	for _, ent := range d.entities {
		w := e.workers[ent.worker]
		for i, fe := range w.fdEnts {
			if fe == ent {
				w.fdEnts = append(w.fdEnts[:i], w.fdEnts[i+1:]...)
				break
			}
		}
	}
}

// wakeDomain wakes the acting workers of every entity in d so newly pushed
// work is noticed promptly.
func (e *Engine) wakeDomain(d *domain) {
	for _, ent := range d.entities {
		if aw := ent.actingWorker(); aw >= 0 {
			e.wake(e.workers[aw], e.now)
		}
	}
}
