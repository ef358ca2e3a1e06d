package sim

import "testing"

func TestPoolRecyclesRecords(t *testing.T) {
	type rec struct {
		n  int
		fn func()
	}
	inits := 0
	var p Pool[rec]
	p.New = func(r *rec) {
		inits++
		r.fn = func() {} // stands in for the pre-bound callback idiom
	}

	a := p.Get()
	a.n = 7
	if len(p.free) != 0 {
		t.Fatalf("after Get: idle %d", len(p.free))
	}
	p.Put(a)
	if len(p.free) != 1 {
		t.Fatalf("after Put: idle %d", len(p.free))
	}
	b := p.Get()
	if b != a {
		t.Fatal("Get did not recycle the released record")
	}
	if b.n != 7 {
		t.Fatal("recycled record was re-zeroed (New must not rerun)")
	}
	if inits != 1 {
		t.Fatalf("New ran %d times, want 1", inits)
	}
	if b.fn == nil {
		t.Fatal("New-bound callback lost on recycle")
	}

	// Steady-state churn through a warmed pool must not allocate.
	p.Put(b)
	allocs := testing.AllocsPerRun(1000, func() {
		r := p.Get()
		p.Put(r)
	})
	if allocs != 0 {
		t.Fatalf("warmed Get/Put cycle allocates %v/op, want 0", allocs)
	}
}
