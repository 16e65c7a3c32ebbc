// Package atomuse is an atomicview fixture: a plain access to a field that
// is elsewhere updated through sync/atomic is flagged; disciplined use
// passes.
package atomuse

import (
	"sync/atomic"
)

// Engine's counters bump through the free functions.
type Engine struct {
	queries uint64
	hits    uint64
	plainOK int
}

// CountAtomic bumps the counters through the free function.
func (e *Engine) CountAtomic() {
	atomic.AddUint64(&e.queries, 1)
	atomic.AddUint64(&e.hits, 1)
}

// LoadAtomic reads a counter through the free function.
func (e *Engine) LoadAtomic() uint64 {
	return atomic.LoadUint64(&e.queries)
}

// CountPlain races CountAtomic: same field, no synchronization.
func (e *Engine) CountPlain() {
	e.queries++ // want "plain access is a data race"
}

// ReadPlain races too — an unsynchronized load of an atomic counter.
func (e *Engine) ReadPlain() uint64 {
	return e.hits // want "plain access is a data race"
}

// PlainOnly is an ordinary field with ordinary access — no atomic use
// anywhere, nothing to flag.
func (e *Engine) PlainOnly() int {
	e.plainOK++
	return e.plainOK
}
