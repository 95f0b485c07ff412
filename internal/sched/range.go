// Package sched implements the pure scheduling mathematics of almost
// deterministic work stealing (ADWS): distribution ranges, deterministic
// task mapping, the cross-worker task-group tree with dominant-group steal
// ranges and steal plans, depth-indexed primary/migration queues, domain
// geometry (cyclic indexing, steal rebase), and the multi-level decisions
// (leader election, tie-to-cache, cache-hierarchy flattening).
//
// The package is substrate-agnostic and lock-free by design: every
// placement rule has its one implementation here. The real runtime
// (internal/runtime) wraps these types with synchronization, and the
// discrete-event simulator (internal/sim) uses them directly in virtual
// time. Entity indices are abstract: in a single-level scheduler they are
// worker IDs; in a multi-level scheduler each ADWS instance runs over the
// child caches of one cache, and the indices are (logically unwrapped)
// child positions.
package sched

import (
	"fmt"
	"math"
)

// Range is a distribution range [X, Y) over scheduling entities, with real
// endpoints (paper §3.1). A boundary may fall in the middle of an entity.
type Range struct {
	X, Y float64
}

// FullRange returns the range covering p entities starting at entity
// `start` on the logically unwrapped axis, i.e. [start, start+p).
func FullRange(start, p int) Range {
	return Range{X: float64(start), Y: float64(start) + float64(p)}
}

// Owner returns the entity that owns (executes) a task with this range:
// floor(X).
func (r Range) Owner() int { return int(math.Floor(r.X)) }

// Last returns floor(Y), the entity just past the highest one a
// cross-worker range spans work onto. (Entity floor(Y) is *not* dominated
// by a group with this range.)
func (r Range) Last() int { return int(math.Floor(r.Y)) }

// Width returns Y - X, the amount of entity capacity the range spans.
func (r Range) Width() float64 { return r.Y - r.X }

// IsCrossWorker reports whether a task with this range is a cross-worker
// task: floor(X) != floor(Y).
func (r Range) IsCrossWorker() bool { return r.Owner() != r.Last() }

// Dominates reports whether entity w is dominated by a dominant group with
// this range: floor(X) <= w < floor(Y). Entity floor(Y) is not dominated.
func (r Range) Dominates(w int) bool { return r.Owner() <= w && w < r.Last() }

// Contains reports whether entity w's cell [w, w+1) intersects the range's
// assignment, i.e. w is one of the entities this range distributes work to:
// floor(X) <= w <= floor(Y) and w < Y.
func (r Range) Contains(w int) bool {
	return r.Owner() <= w && float64(w) < r.Y
}

func (r Range) String() string { return fmt.Sprintf("[%.3f,%.3f)", r.X, r.Y) }

// TaskKind classifies a child task of a cross-worker task group relative to
// the entity i that created the group (paper Fig. 6).
type TaskKind int

const (
	// KindMigrate is a task with floor(x) != i: passed to entity floor(x).
	// It may itself be cross-worker or not. (In the paper's presentation
	// floor(x) > i always holds because a task executes on the entity that
	// owns its range; a stolen task whose range was rebased onto the thief
	// can also produce floor(x) < i, which is handled the same way.)
	KindMigrate TaskKind = iota
	// KindExecute is the cross-worker task with floor(x) == i and
	// floor(y) > i: executed immediately by entity i. At most one per
	// cross-worker task group.
	KindExecute
	// KindLocal is a non-cross-worker task with floor(x) == floor(y) == i:
	// pushed to entity i's primary queue and executed later.
	KindLocal
)

func (k TaskKind) String() string {
	switch k {
	case KindMigrate:
		return "migrate"
	case KindExecute:
		return "execute"
	case KindLocal:
		return "local"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// Classify returns the kind of a child task with range r relative to the
// entity i executing the enclosing task group (paper Fig. 6).
func Classify(r Range, i int) TaskKind {
	switch {
	case r.Owner() != i:
		return KindMigrate
	case r.IsCrossWorker():
		return KindExecute
	default:
		return KindLocal
	}
}

// Splitter divides a task group's distribution range among its child tasks
// in proportion to their work hints (paper Fig. 7 lines 21–22).
//
// Children are declared left to right in the paper's figures, which assigns
// ranges from the top of the range downward: the first child receives the
// topmost slice, so tasks destined for distant entities are created (and
// migrated) first, and the final child's slice ends exactly at X and falls
// to the creating entity. This ordering is what distributes descendants "as
// soon as possible" (§3.1).
type Splitter struct {
	r         Range
	totalWork float64 // total work hint for the group (w_all)
	assigned  float64 // work hint already consumed by NextChild calls
	cursor    float64 // current top of the unassigned sub-range
}

// NewSplitter prepares to divide range r among children whose work hints
// sum to totalWork. A non-positive totalWork is treated as unknown: every
// child hint is then ignored, the first child receives the whole range and
// every later child an empty range at X. An incremental splitter cannot
// split evenly without the child count; SplitEqual can.
func NewSplitter(r Range, totalWork float64) *Splitter {
	if totalWork < 0 || math.IsNaN(totalWork) || math.IsInf(totalWork, 0) {
		totalWork = 0
	}
	return &Splitter{r: r, totalWork: totalWork, cursor: r.Y}
}

// NextChild returns the range for the next child task, given its work hint.
// The final child's range is clamped to end exactly at the group range's X
// when the hints consume the whole total; callers that cannot guarantee
// hints sum to totalWork can check Remaining. Non-positive hints receive an
// empty slice at the current cursor (the paper's hints are relative
// amounts of work; zero work means no entities need to be reserved).
func (s *Splitter) NextChild(hint float64) Range {
	if hint < 0 || math.IsNaN(hint) || math.IsInf(hint, 0) {
		hint = 0
	}
	if s.totalWork <= 0 {
		// Unknown total: the first child takes the whole range, later
		// children an empty range at X.
		r := Range{X: s.r.X, Y: s.cursor}
		s.cursor = s.r.X
		return r
	}
	s.assigned += hint
	frac := s.assigned / s.totalWork
	var bottom float64
	if frac >= 1 {
		bottom = s.r.X
	} else {
		bottom = s.r.Y - frac*s.r.Width()
		if bottom < s.r.X {
			bottom = s.r.X
		}
	}
	r := Range{X: bottom, Y: s.cursor}
	if r.Y < r.X {
		r.Y = r.X
	}
	s.cursor = bottom
	return r
}

// Remaining returns the unassigned bottom part of the range, [X, cursor).
func (s *Splitter) Remaining() Range { return Range{X: s.r.X, Y: s.cursor} }

// SplitByHints divides r among len(hints) children in one call, assigning
// from the top downward. If totalWork <= 0 or the hints sum to zero, the
// split is even (the paper's "guess that child tasks have the same amount
// of work", §6.4). The last child always ends exactly at r.X.
func SplitByHints(r Range, totalWork float64, hints []float64) []Range {
	n := len(hints)
	if n == 0 {
		return nil
	}
	sum := 0.0
	for _, h := range hints {
		if h > 0 && !math.IsNaN(h) && !math.IsInf(h, 0) {
			sum += h
		}
	}
	if totalWork <= 0 || sum <= 0 {
		return SplitEqual(r, n)
	}
	// Normalize against the declared total; if the hints exceed it, scale
	// down so everything still fits in the range.
	total := totalWork
	if sum > total {
		total = sum
	}
	out := make([]Range, n)
	cursor := r.Y
	acc := 0.0
	for i, h := range hints {
		if h < 0 || math.IsNaN(h) || math.IsInf(h, 0) {
			h = 0
		}
		acc += h
		bottom := r.Y - (acc/total)*r.Width()
		if i == n-1 && acc >= total {
			bottom = r.X
		}
		if bottom < r.X {
			bottom = r.X
		}
		if bottom > cursor {
			bottom = cursor
		}
		out[i] = Range{X: bottom, Y: cursor}
		cursor = bottom
	}
	return out
}

// SplitEqual divides r evenly among n children, assigning from the top
// downward (first child gets the topmost slice).
func SplitEqual(r Range, n int) []Range {
	if n <= 0 {
		return nil
	}
	out := make([]Range, n)
	cursor := r.Y
	w := r.Width()
	for i := 0; i < n; i++ {
		var bottom float64
		if i == n-1 {
			bottom = r.X
		} else {
			bottom = r.Y - (float64(i+1)/float64(n))*w
		}
		if bottom > cursor {
			bottom = cursor
		}
		out[i] = Range{X: bottom, Y: cursor}
		cursor = bottom
	}
	return out
}
