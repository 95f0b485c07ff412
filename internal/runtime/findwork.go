package runtime

import (
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/trace"
)

// maxStealTries bounds victims tried per findTask call.
const maxStealTries = 4

// findTask implements GETRUNNABLETASK (paper Fig. 11) for this worker:
// local pops from the entities the worker acts for, then steals within the
// current dominant-group steal range (ADWS) or uniformly (WS). minDepth is
// advisory for helping-wait callers and applies to steals only; local pops
// always succeed to preserve liveness (DESIGN.md).
func (w *worker) findTask(minDepth int) *task {
	cands := w.candidates()
	// Claim a freshly submitted root task if we act for its owner entity.
	// Only the top-level scheduler loop claims roots (execDepth == 0):
	// starting a new root inside a helping wait would trap the waiting
	// group behind the whole new computation.
	if w.execDepth == 0 && w.pool.rootN.Load() > 0 {
		if t := w.pool.claimRoot(cands); t != nil {
			w.noteStart(t.ent, t)
			return t
		}
	}
	for _, ent := range cands {
		if t := ent.popLocal(); t != nil {
			w.noteStart(ent, t)
			return t
		}
	}
	for _, ent := range cands {
		if t := w.trySteal(ent, minDepth); t != nil {
			w.noteStart(ent, t)
			return t
		}
	}
	return nil
}

// noteSteal records a successful steal on the worker and the stolen
// task's job.
//
//adws:hotpath
func (w *worker) noteSteal(t *task) {
	w.stats.steals.Add(1)
	if t.job != nil {
		t.job.steals.Add(1)
	}
}

// noteStart records scheduling bookkeeping when a task begins on entity e.
//
//adws:hotpath
func (w *worker) noteStart(e *entity, t *task) {
	if t.group != nil {
		e.lastGroup.Store(t.group)
	}
	t.ent = e
	// Obtaining a task closes any pending park-wakeup span.
	w.noteRunAfterWake()
}

// candidates returns the entities this worker may act for, in priority
// order: live flattened domains (newest first, exclusively while any are
// live), then the entity of the cache the worker leads.
func (w *worker) candidates() []*entity {
	p := w.pool
	if !p.policy.isML() {
		return []*entity{p.rootDom.entities[w.id]}
	}
	var out []*entity
	w.fdMu.Lock()
	live := w.fdEnts[:0]
	for _, ent := range w.fdEnts {
		if !ent.dom.closed.Load() {
			live = append(live, ent)
		}
	}
	w.fdEnts = live
	for i := len(live) - 1; i >= 0; i-- {
		out = append(out, live[i])
	}
	n := len(live)
	w.fdMu.Unlock()
	if n > 0 {
		// One flattened group at a time per cache: a leader inside a live
		// flattened domain must not start other tasks at its cache level.
		return out
	}
	p.ml.Lock()
	if w.leads != nil && w.leads.entity != nil && w.leads.Leader == w.id {
		ent := w.leads.entity
		if !ent.dom.closed.Load() {
			out = append(out, ent)
		}
	}
	p.ml.Unlock()
	return out
}

// trySteal attempts a bounded number of random steals for entity ent.
func (w *worker) trySteal(ent *entity, minDepth int) *task {
	d := ent.dom
	m := w.pool.metrics
	if d.ADWS {
		sp, ok := sched.PlanSteal(&d.Domain, ent.lastGroup.Load(), ent.idx, minDepth, maxStealTries)
		if !ok {
			return nil
		}
		md := int32(sp.Depth)
		for a := 0; a < sp.Tries; a++ {
			w.stats.stealAttempts.Add(1)
			var probeStart int64
			if m != nil {
				probeStart = now()
			}
			v, vp, ok := sp.Pick(w.rng)
			if w.wantEv(trace.EvStealAttempt, md) {
				w.emit(trace.Event{Type: trace.EvStealAttempt, Time: now(),
					Self: int32(sp.Self), Victim: int32(v), Depth: md,
					RangeLo: sp.Lo, RangeHi: sp.Hi}, md)
			}
			var t *task
			if ok && sp.MigrationStealable(v) {
				t = d.entities[vp].stealMigration(sp.Depth)
			}
			if ok && t == nil && sp.PrimaryStealable(v) {
				t = d.entities[vp].stealPrimary(sp.Depth)
			}
			w.noteStealProbe(probeStart)
			if t != nil {
				w.noteSteal(t)
				if w.wantEv(trace.EvStealSuccess, md) {
					w.emit(trace.Event{Type: trace.EvStealSuccess, Time: now(),
						Self: int32(sp.Self), Victim: int32(v), Depth: md,
						Task: t.seq, Job: t.jobID(), RangeLo: sp.Lo, RangeHi: sp.Hi}, md)
				}
				t.inMigration = false
				t.rng = d.Rebase(t.rng, sp.Self)
				return t
			}
		}
		if w.wantEv(trace.EvStealFail, md) {
			w.emit(trace.Event{Type: trace.EvStealFail, Time: now(),
				Self: int32(sp.Self), Depth: md, RangeLo: sp.Lo, RangeHi: sp.Hi}, md)
		}
		return nil
	}
	n := len(d.entities)
	tries := min(maxStealTries, n-1)
	for a := 0; a < tries; a++ {
		w.stats.stealAttempts.Add(1)
		var probeStart int64
		if m != nil {
			probeStart = now()
		}
		v := w.rng.Victim(ent.idx, n)
		if w.wantEv(trace.EvStealAttempt, 0) {
			w.emit(trace.Event{Type: trace.EvStealAttempt, Time: now(),
				Self: int32(ent.idx), Victim: int32(v)}, 0)
		}
		t := d.entities[v].stealAny()
		w.noteStealProbe(probeStart)
		if t != nil {
			w.noteSteal(t)
			if w.wantEv(trace.EvStealSuccess, 0) {
				w.emit(trace.Event{Type: trace.EvStealSuccess, Time: now(),
					Self: int32(ent.idx), Victim: int32(v), Task: t.seq, Job: t.jobID()}, 0)
			}
			return t
		}
	}
	if tries > 0 && w.wantEv(trace.EvStealFail, 0) {
		w.emit(trace.Event{Type: trace.EvStealFail, Time: now(),
			Self: int32(ent.idx)}, 0)
	}
	return nil
}
