package atomicfield

import (
	"sync/atomic"

	"scap/internal/metrics"
)

// journal mirrors streamscope.Journal: a struct from another package is
// allowed when its fields are all atomic (metrics.Slot) and flagged when
// they are not (metrics.Desc holds plain strings).
//
//scap:atomics
type journal struct {
	next  atomic.Uint64
	slots [4]metrics.Slot
	desc  metrics.Desc // want atomicfield "non-atomic type scap/internal/metrics.Desc"
}
