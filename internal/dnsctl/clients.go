package dnsctl

import (
	"fmt"
	"math/rand"

	"megadc/internal/cluster"
)

// ViolationHoldSec is how long a TTL violator keeps a stale entry past
// expiry in the standard client model (10 minutes), shared by the
// request engine, the session driver, and the E4 baseline.
const ViolationHoldSec float64 = 600

// ClientPopulation models the resolver caches of a pool of clients for
// one application. Each client caches the VIP it last resolved until the
// record's TTL expires; a configurable fraction of clients are *TTL
// violators* who keep using a stale answer for an extended period after
// expiry (the paper cites [18], [4] for this behaviour, and it is the
// reason VIP drains never fully quiesce immediately).
//
// The population is sampled: each arrival is attributed to a client
// chosen uniformly at random, which re-resolves only if its cached entry
// has expired. With N clients this reproduces the aggregate cache-decay
// dynamics that matter for the drain experiments at a cost independent
// of the real client count.
type ClientPopulation struct {
	app cluster.AppID
	dns *DNS

	violationHold float64 // extra seconds a violator keeps a stale entry

	clients []clientCache
}

type clientCache struct {
	vip      string
	expiry   float64
	violator bool
}

// NewClientPopulation creates a population of n sampled clients for app.
// violatorFraction in [0,1] of them hold entries for violationHold extra
// seconds past the TTL.
func NewClientPopulation(dns *DNS, app cluster.AppID, n int, violatorFraction, violationHold float64, rng *rand.Rand) (*ClientPopulation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dnsctl: population size %d", n)
	}
	if violatorFraction < 0 || violatorFraction > 1 {
		return nil, fmt.Errorf("dnsctl: violator fraction %v out of [0,1]", violatorFraction)
	}
	if violationHold < 0 {
		return nil, fmt.Errorf("dnsctl: negative violation hold %v", violationHold)
	}
	p := &ClientPopulation{
		app:           app,
		dns:           dns,
		violationHold: violationHold,
		clients:       make([]clientCache, n),
	}
	for i := range p.clients {
		p.clients[i].expiry = -1 // nothing cached
		p.clients[i].violator = rng.Float64() < violatorFraction
	}
	return p, nil
}

// Arrive attributes one session arrival at time t to a random client and
// returns the VIP the client connects to. The client re-resolves if its
// cache has expired (violators hold entries longer).
func (p *ClientPopulation) Arrive(t float64, rng *rand.Rand) (string, error) {
	c := &p.clients[rng.Intn(len(p.clients))]
	hold := p.dns.TTL()
	if c.violator {
		hold += p.violationHold
	}
	if c.expiry < 0 || t > c.expiry || c.vip == "" {
		vip, err := p.dns.Resolve(p.app, rng)
		if err != nil {
			return "", err
		}
		c.vip = vip
		c.expiry = t + hold
	}
	return c.vip, nil
}
