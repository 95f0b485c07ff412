// Package bad exercises the atomiconly ban on function-form sync/atomic.
package bad

import "sync/atomic"

type counter struct {
	hits int64
}

func bump(c *counter) {
	atomic.AddInt64(&c.hits, 1) // want `function-form atomic.AddInt64`
}

var gen uint64

func next() uint64 { return atomic.AddUint64(&gen, 1) } // want `function-form atomic.AddUint64`

// A function value is still the function form.
var load = atomic.LoadUint64 // want `function-form atomic.LoadUint64`
