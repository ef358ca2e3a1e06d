// Package viprip implements the paper's VIP/RIP manager (Section III-C):
// the global-manager component that mediates and serializes every
// VIP/RIP (re)configuration request. All LB switches are a globally
// shared resource; pod managers and the global manager submit requests,
// and the manager processes them sequentially by priority — allocating
// each new VIP on an underloaded switch and each new RIP on a switch
// that already hosts one of the application's VIPs.
package viprip

import (
	"errors"
	"fmt"
	"strconv"

	"megadc/internal/ids"
)

// IPPool allocates unique IPv4 addresses from a base address. Freed
// addresses are recycled lowest-first, so free-then-alloc always
// returns the numerically lowest available address — a deterministic
// rule property tests can assert. The paper's RIPs come from the
// private 10/8 block; VIPs from the provider's public space.
//
// The pool is sized for the paper's ~6M RIPs: the free list is a binary
// min-heap (O(log n) alloc/free instead of the O(n) sorted-insert a
// slice would need), and in-use tracking is a bitset over the pool's
// offset range (one bit per address) rather than a hash map.
type IPPool struct {
	base uint32
	size uint32
	next uint32
	// freed is a binary min-heap of returned offsets (addr - base); the
	// root is the lowest freed address. Hand-rolled rather than
	// container/heap to keep Alloc/Free allocation-free.
	freed []uint32
	inUse ids.Bitset
}

// ErrPoolExhausted is returned when no addresses remain.
var ErrPoolExhausted = errors.New("viprip: IP pool exhausted")

// NewIPPool returns a pool of size addresses starting at the dotted-quad
// base (e.g. "10.0.0.0"). The range must fit the IPv4 address space:
// base + size may not wrap past 255.255.255.255.
func NewIPPool(base string, size uint32) (*IPPool, error) {
	b, err := parseIPv4(base)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return nil, errors.New("viprip: pool size must be positive")
	}
	if uint64(b)+uint64(size) > 1<<32 {
		return nil, fmt.Errorf("viprip: pool %s+%d overflows the IPv4 address space", base, size)
	}
	p := &IPPool{base: b, size: size}
	p.inUse.Grow(int(min(size, 1<<20))) // pre-size small pools fully; big ones grow on demand
	return p, nil
}

// Alloc returns an unused address from the pool: the lowest freed
// address when any exist (all freed addresses precede the never-used
// range), otherwise the next never-used one.
func (p *IPPool) Alloc() (string, error) {
	var off uint32
	if len(p.freed) > 0 {
		off = p.popMin()
	} else {
		if p.next >= p.size {
			return "", ErrPoolExhausted
		}
		off = p.next
		p.next++
	}
	p.inUse.Set(int(off))
	return formatIPv4(p.base + off), nil
}

// Free returns an address to the pool. Freeing an address that is not
// allocated is an error.
func (p *IPPool) Free(ip string) error {
	a, err := parseIPv4(ip)
	if err != nil {
		return err
	}
	if a < p.base || a-p.base >= p.size || !p.inUse.Get(int(a-p.base)) {
		return fmt.Errorf("viprip: %s not allocated from this pool", ip)
	}
	off := a - p.base
	p.inUse.Clear(int(off))
	p.pushMin(off)
	return nil
}

// popMin removes and returns the smallest offset on the free heap.
func (p *IPPool) popMin() uint32 {
	h := p.freed
	minOff := h[0]
	last := len(h) - 1
	h[0] = h[last]
	p.freed = h[:last]
	h = p.freed
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return minOff
}

// pushMin adds an offset to the free heap.
func (p *IPPool) pushMin(off uint32) {
	p.freed = append(p.freed, off)
	h := p.freed
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// PlanSequential exposes the pool's deterministic never-used address
// sequence for the parallel bulk-onboarding planner (core's
// OnboardAppsBulk): next is the offset Alloc would hand out next, and
// addrAt formats the address at any offset without touching pool
// state, so workers can precompute address strings concurrently. It
// fails when freed addresses exist — Alloc recycles those lowest-first,
// so a sequential plan would diverge from what Alloc returns.
func (p *IPPool) PlanSequential() (next uint32, addrAt func(uint32) string, err error) {
	if len(p.freed) > 0 {
		return 0, nil, fmt.Errorf("viprip: pool has %d recycled addresses; sequential plan invalid", len(p.freed))
	}
	base := p.base
	return p.next, func(off uint32) string { return formatIPv4(base + off) }, nil
}

// ClaimRange marks the n offsets starting at start as allocated —
// equivalent to n sequential Alloc calls whose address strings the
// planner already formatted. start must still be the never-used cursor
// of the PlanSequential that produced the plan, with no interleaved
// Alloc or Free.
func (p *IPPool) ClaimRange(start, n uint32) error {
	if len(p.freed) > 0 || start != p.next {
		return fmt.Errorf("viprip: claim [%d,%d) does not match pool cursor %d (%d freed)",
			start, start+n, p.next, len(p.freed))
	}
	if uint64(start)+uint64(n) > uint64(p.size) {
		return ErrPoolExhausted
	}
	p.inUse.Grow(int(start + n))
	for off := start; off < start+n; off++ {
		p.inUse.Set(int(off))
	}
	p.next += n
	return nil
}

// parseIPv4 parses a dotted-quad address without fmt's reflection
// overhead; at 6M RIPs every Free goes through here.
func parseIPv4(s string) (uint32, error) {
	var v uint32
	part, digits, dots := uint32(0), 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			part = part*10 + uint32(c-'0')
			digits++
			if digits > 3 || part > 255 {
				return 0, fmt.Errorf("viprip: bad IPv4 %q", s)
			}
		case c == '.':
			if digits == 0 || dots == 3 {
				return 0, fmt.Errorf("viprip: bad IPv4 %q", s)
			}
			v = v<<8 | part
			part, digits = 0, 0
			dots++
		default:
			return 0, fmt.Errorf("viprip: bad IPv4 %q", s)
		}
	}
	if dots != 3 || digits == 0 {
		return 0, fmt.Errorf("viprip: bad IPv4 %q", s)
	}
	return v<<8 | part, nil
}

func formatIPv4(v uint32) string {
	var buf [15]byte
	b := strconv.AppendUint(buf[:0], uint64(v>>24&255), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(v>>16&255), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(v>>8&255), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(v&255), 10)
	return string(b)
}
