// Package good holds atomiconly-clean idioms: typed atomics used through
// their methods, including generic ones and slices of atomic-containing
// element types.
package good

import "sync/atomic"

type counter struct {
	hits atomic.Int64
	mask uint64 // plain by design: never shared
}

func bump(c *counter) { c.hits.Add(1) }

type hist struct {
	shards []counter
	last   atomic.Pointer[counter]
}

func (h *hist) add(i int) {
	c := &h.shards[i%len(h.shards)]
	c.hits.Add(1)
	h.last.Store(c)
}

func (h *hist) total() int64 {
	var sum int64
	for i := range h.shards {
		sum += h.shards[i].hits.Load()
	}
	return sum
}
