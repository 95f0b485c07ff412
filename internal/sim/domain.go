package sim

import "github.com/parlab/adws/internal/sched"

// entity is one scheduling slot of a domain. In a worker-level domain an
// entity is permanently bound to one worker; in a cache-level domain it
// represents a cache and is acted on by the cache's current leader.
type entity struct {
	dom *domain
	// idx is the physical index of the entity within the domain.
	idx int
	// queues holds the tasks assigned to this entity.
	queues sched.QueueSet[*Task]
	// cache is the mlCache this entity represents (nil for worker-level
	// domains).
	cache *mlCache
	// worker is the fixed acting worker for worker-level domains (-1 for
	// cache-level domains, where the acting worker is the cache leader).
	worker int
	// lastGroup is the cross-worker group of the last ADWS task this
	// entity executed; it anchors the dominant-group walk for steals.
	lastGroup *sched.GroupNode
}

// actingWorker returns the worker currently acting for this entity, or -1.
func (e *entity) actingWorker() int {
	if e.cache != nil {
		return e.cache.Leader
	}
	return e.worker
}

// domain is one single-level scheduling arena: a set of entities plus the
// placement geometry and policy they share (sched.Domain). The root domain
// exists for the whole run; multi-level scheduling creates and closes
// domains as task groups are tied to caches or hierarchies are flattened.
type domain struct {
	sched.Domain
	id       int
	entities []*entity
	// closed marks a domain whose group completed; workers drop its
	// entities from their candidates.
	closed bool
}

// mlCache is the per-cache state of multi-level scheduling.
type mlCache struct {
	// Lead holds the cache, its current leader and whether a group is
	// tied to it.
	sched.Lead
	// entity is this cache's entity in the currently active domain over
	// its parent's children (nil while no such domain exists).
	entity *entity
	// childDomain is the domain over this cache's children while a group
	// is tied here (nil otherwise).
	childDomain *domain
}
