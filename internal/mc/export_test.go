package mc

import (
	"context"

	"wcet/internal/tsys"
)

// CheckBaseline is CheckSymbolic with every speed lever off: no per-trap
// slice, the build-time variable order throughout, and a fresh BDD manager
// — the engine the lever benchmark times the default against.
func CheckBaseline(model *tsys.Model, opt Options) (*Result, error) {
	q := newQuery(model, opt, levers{noSlice: true, noReorder: true, noPool: true}, false)
	defer q.Close()
	return q.CheckCtx(context.Background())
}
