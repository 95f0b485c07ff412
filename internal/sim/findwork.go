package sim

import (
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/trace"
)

// maxBackoffFactor bounds the exponential idle backoff to
// IdlePoll * maxBackoffFactor.
const maxBackoffFactor = 8

// findWork is the scheduler loop body of an idle worker (paper Fig. 11,
// GETRUNNABLETASK): resume returned continuations first, then pop local
// queues, then steal within the current steal range.
func (e *Engine) findWork(w *worker) {
	if e.done {
		return
	}
	// 1. Returned continuations have the highest priority (§3.1).
	if n := len(w.resume); n > 0 {
		t := w.resume[n-1]
		w.resume = w.resume[:n-1]
		e.startTask(w, t, t.ent, 0, e.costs.ResumeOverhead)
		return
	}
	if e.cfg.Mode == SB {
		e.findWorkSB(w)
		return
	}

	cands := e.candidates(w)
	// 2. Local queues.
	for _, ent := range cands {
		if t, ok := ent.queues.PopLocal(); ok {
			e.startTask(w, t, ent, 0, 0)
			return
		}
	}
	// 3. Steal within each candidate domain.
	var searched float64
	for _, ent := range cands {
		if t, ok := e.trySteal(w, ent, &searched); ok {
			e.startTask(w, t, ent, searched, e.costs.StealSuccess)
			return
		}
	}
	e.goIdle(w, searched)
}

// candidates returns the entities worker w may act for, in priority order:
// flattened-domain entities (newest first), then the entity of the cache
// the worker currently leads.
func (e *Engine) candidates(w *worker) []*entity {
	if !e.cfg.Mode.IsMultiLevel() {
		return []*entity{e.rootDom.entities[w.id]}
	}
	var out []*entity
	// Prune closed flattened domains in place.
	live := w.fdEnts[:0]
	for _, ent := range w.fdEnts {
		if !ent.dom.closed {
			live = append(live, ent)
		}
	}
	w.fdEnts = live
	for i := len(live) - 1; i >= 0; i-- {
		out = append(out, live[i])
	}
	// A leader participating in a live flattened domain must not start
	// another task at its cache level: each cache executes one flattened
	// group ("level-l leaf") at a time (§4.2's one-tied-group invariant,
	// carried over to flattening).
	if len(live) == 0 && w.leads != nil && w.leads.entity != nil && !w.leads.entity.dom.closed &&
		w.leads.entity.actingWorker() == w.id {
		out = append(out, w.leads.entity)
	}
	return out
}

// trySteal attempts up to MaxStealTries random steals for entity ent,
// accumulating the time spent in *searched. ADWS domains use the dominant
// task group's steal range with depth and boundary-queue restrictions;
// WS domains steal uniformly at random.
func (e *Engine) trySteal(w *worker, ent *entity, searched *float64) (*Task, bool) {
	d := ent.dom
	tr := e.cfg.Tracer
	if d.ADWS {
		sp, ok := sched.PlanSteal(&d.Domain, ent.lastGroup, ent.idx, 0, e.cfg.MaxStealTries)
		if !ok {
			return nil, false
		}
		for a := 0; a < sp.Tries; a++ {
			*searched += e.costs.StealAttempt
			w.stealAttempts++
			v, vp, ok := sp.Pick(w.rng)
			if tr != nil {
				tr.Record(w.id, trace.Event{Type: trace.EvStealAttempt, Time: e.vt(),
					Self: int32(sp.Self), Victim: int32(v), Depth: int32(sp.Depth),
					RangeLo: sp.Lo, RangeHi: sp.Hi})
			}
			if !ok {
				continue
			}
			q := &d.entities[vp].queues
			var t *Task
			got := false
			if sp.MigrationStealable(v) {
				t, got = q.StealMigration(sp.Depth)
			}
			if !got && sp.PrimaryStealable(v) {
				t, got = q.StealPrimary(sp.Depth)
			}
			if got {
				w.steals++
				if tr != nil {
					tr.Record(w.id, trace.Event{Type: trace.EvStealSuccess, Time: e.vt(),
						Self: int32(sp.Self), Victim: int32(v), Depth: int32(sp.Depth),
						Task: e.ordinal(t), RangeLo: sp.Lo, RangeHi: sp.Hi})
				}
				t.inMigrationQueue = false
				t.rng = d.Rebase(t.rng, sp.Self)
				return t, true
			}
		}
		if tr != nil {
			tr.Record(w.id, trace.Event{Type: trace.EvStealFail, Time: e.vt(),
				Self: int32(sp.Self), Depth: int32(sp.Depth), RangeLo: sp.Lo, RangeHi: sp.Hi})
		}
		return nil, false
	}
	// Conventional random work stealing.
	n := len(d.entities)
	tries := min(e.cfg.MaxStealTries, n-1)
	for a := 0; a < tries; a++ {
		*searched += e.costs.StealAttempt
		w.stealAttempts++
		v := w.rng.Victim(ent.idx, n)
		if tr != nil {
			tr.Record(w.id, trace.Event{Type: trace.EvStealAttempt, Time: e.vt(),
				Self: int32(ent.idx), Victim: int32(v)})
		}
		if t, ok := d.entities[v].queues.StealAny(); ok {
			w.steals++
			if tr != nil {
				tr.Record(w.id, trace.Event{Type: trace.EvStealSuccess, Time: e.vt(),
					Self: int32(ent.idx), Victim: int32(v), Task: e.ordinal(t)})
			}
			return t, true
		}
	}
	if tr != nil && tries > 0 {
		tr.Record(w.id, trace.Event{Type: trace.EvStealFail, Time: e.vt(),
			Self: int32(ent.idx)})
	}
	return nil, false
}

// startTask begins executing task t on worker w, charging `searched` time
// as idle-search cost and `oh` as scheduling overhead.
func (e *Engine) startTask(w *worker, t *Task, ent *entity, searched, oh float64) {
	ts := e.now + searched + oh
	if w.idle {
		w.idleTime += (ts - w.idleStart) - oh
		w.idle = false
		w.backoff = 0
	} else {
		w.idleTime += searched
	}
	w.overheadTime += oh
	t.execWorker = w.id
	if ent != nil {
		t.ent = ent
		if t.group != nil {
			ent.lastGroup = t.group
		}
	}
	w.current = t
	e.schedule(w, ts)
}

// goIdle records the transition to idleness and schedules a backoff poll.
func (e *Engine) goIdle(w *worker, searched float64) {
	if !w.idle {
		w.idle = true
		w.idleStart = e.now
	}
	if w.backoff == 0 {
		w.backoff = e.costs.IdlePoll
	} else if w.backoff < e.costs.IdlePoll*maxBackoffFactor {
		w.backoff *= 2
	}
	e.schedule(w, e.now+searched+w.backoff)
}
