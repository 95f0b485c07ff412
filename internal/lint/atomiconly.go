package lint

import (
	"fmt"
	"go/types"
)

// atomiconlyAnalyzer bans the function form of sync/atomic
// (atomic.AddInt64(&x, 1), atomic.LoadUint64(&w), ...). A word handed to
// those functions is a plain integer that any other line may still read
// or write plainly, tearing or caching it. A typed atomic (atomic.Int64,
// atomic.Pointer[T], ...) exposes its word only through atomic methods,
// and go vet's copylocks check flags copies of one.
var atomiconlyAnalyzer = &Analyzer{
	Name: "atomiconly",
	Doc:  "no function-form sync/atomic: shared words use the typed atomics",
	Run:  runAtomiconly,
}

func runAtomiconly(u *Universe) []Diagnostic {
	var diags []Diagnostic
	for _, p := range u.Targets {
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      u.position(id.Pos()),
				Analyzer: "atomiconly",
				Message:  fmt.Sprintf("function-form atomic.%s: make the word a sync/atomic type and use its methods", fn.Name()),
			})
		}
	}
	return diags
}
