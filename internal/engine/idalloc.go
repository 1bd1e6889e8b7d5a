package engine

import (
	"sync"
	"sync/atomic"
)

// idBlockStride is the number of ids an IDAlloc reserves per refill. 1024
// keeps per-engine contention at one atomic add per ~1k allocations while
// wasting at most ~8 KiB of id space (out of 2^64) per idle pooled
// transaction.
const idBlockStride = 1024

// IDSource is one engine's object/transaction id counter. Ids are consumed in
// blocks: every transaction holds a private IDAlloc (Block) and touches the
// shared counter only once per stride, so Alloc-heavy transactions on
// different cores stop ping-ponging its cache line; allocations outside any
// transaction (NewObj) go through the source's own mutex-guarded block (Take).
// Blocks abandoned by pooled transactions leave gaps in the id space; gaps are
// harmless because ids are unique per engine, never reused, and only ever
// compared for equality, never for adjacency. The zero value is ready to use;
// an IDSource must not be copied after first use.
type IDSource struct {
	next atomic.Uint64
	mu   sync.Mutex
	own  IDAlloc
}

// Block returns an empty private block that refills from s.
func (s *IDSource) Block() IDAlloc { return IDAlloc{src: &s.next} }

// Take returns the next unused id. It is safe for concurrent use.
func (s *IDSource) Take() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.own.src == nil {
		s.own.src = &s.next
	}
	return s.own.Take()
}

// IDAlloc is a private block of ids pre-reserved from an IDSource. It is not
// safe for concurrent use; each transaction owns one.
type IDAlloc struct {
	src         *atomic.Uint64
	next, limit uint64
}

// Take returns the next unused id.
func (a *IDAlloc) Take() uint64 {
	if a.next == a.limit {
		hi := a.src.Add(idBlockStride)
		a.next, a.limit = hi-idBlockStride+1, hi+1
	}
	id := a.next
	a.next++
	return id
}
