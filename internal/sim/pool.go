package sim

// Pool is a free-list arena for per-event records (sessions, requests).
// Records are recycled rather than garbage-collected: steady-state churn
// through Get/Put allocates nothing once the pool has warmed up, which
// keeps high-turnover event paths off the allocator. New is called once
// per fresh record and is the hook for binding callbacks that capture
// only the record pointer — the trick that avoids a closure allocation
// on every event (see sessions and requests).
//
// Pool is not safe for concurrent use; the engine is single-threaded.
type Pool[T any] struct {
	// New initializes a freshly allocated record. Optional.
	New func(*T)

	free []*T
}

// Get pops a recycled record or allocates (and initializes) a new one.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return v
	}
	v := new(T)
	if p.New != nil {
		p.New(v)
	}
	return v
}

// Put returns a record to the free list. The caller must drop every
// reference it holds; the record will be handed out again by Get.
func (p *Pool[T]) Put(v *T) {
	p.free = append(p.free, v)
}
