package core

import (
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// cacheSelector implements the §2.2 marker-cache feedback: a circular cache
// of recent markers; upon congestion, F_n markers are drawn uniformly at
// random from the cache and bounced to their edges. Because flows occupy
// the cache in proportion to their normalized rates, the expected feedback
// per flow is proportional to b_g/w — without the router knowing or caring
// which flows it selects.
type cacheSelector struct {
	ring []packet.Marker
	next int
	full bool
	rng  *sim.RNG
	send func(packet.Marker)

	// insertedN / evictedN are plain accounting counters the invariant
	// checker reads: insertedN == size() + evictedN must hold at all times
	// (every marker ever inserted is either still held or was overwritten).
	insertedN int64
	evictedN  int64

	// cached counts markers inserted; evicted counts cache slots
	// overwritten (the cache's aging). Both are nil-safe no-ops when
	// observability is off.
	cached  *obs.Counter
	evicted *obs.Counter
}

var _ selector = (*cacheSelector)(nil)

func newCacheSelector(size int, rng *sim.RNG, send func(packet.Marker)) *cacheSelector {
	if size <= 0 {
		size = 1
	}
	return &cacheSelector{ring: make([]packet.Marker, size), rng: rng, send: send}
}

// len reports how many valid markers the cache holds.
func (c *cacheSelector) size() int {
	if c.full {
		return len(c.ring)
	}
	return c.next
}

func (c *cacheSelector) observe(m packet.Marker) {
	c.insertedN++
	c.cached.Inc()
	if c.full {
		c.evictedN++
		c.evicted.Inc()
	}
	c.ring[c.next] = m
	c.next++
	if c.next == len(c.ring) {
		c.next = 0
		c.full = true
	}
}

func (c *cacheSelector) endEpoch(fn float64) {
	n := c.size()
	if fn <= 0 || n == 0 {
		return
	}
	// Probabilistic rounding preserves the expected feedback volume for
	// fractional F_n.
	count := int(fn)
	if c.rng.Bernoulli(fn - float64(count)) {
		count++
	}
	for i := 0; i < count; i++ {
		c.send(c.ring[c.rng.Intn(n)])
	}
}

// statelessSelector implements the §3.2 cache-less selective feedback. The
// only state is two scalars (r_av, w_av) plus a per-epoch deficit counter —
// no per-flow state, no marker cache:
//
//   - r_av: running average of the labelled normalized rates over all
//     markers traversing the link. Because flows with larger normalized
//     rates contribute more markers, r_av overestimates the true average,
//     so selecting markers with r_n >= r_av isolates exactly the flows
//     over-using the link.
//   - w_av: running average of markers observed per epoch; the selection
//     probability is p_w = F_n / w_av.
//   - deficit: when a selected marker's label is below r_av it is not
//     bounced, but a later above-average marker is bounced in its place.
type statelessSelector struct {
	rAvgGain float64
	wAvgGain float64
	rng      *sim.RNG
	send     func(packet.Marker)

	rav     float64
	ravInit bool
	wav     float64
	wavInit bool

	markersThisEpoch int
	// pw > 0 means a feedback quota is armed for the current epoch.
	pw      float64
	deficit int

	// deficitCtr counts deficit armings; onDeficit (nil when observability
	// is off) reports each arming with the marker's rate and current r_av.
	deficitCtr *obs.Counter
	onDeficit  func(rate, rav float64)
}

var _ selector = (*statelessSelector)(nil)

func newStatelessSelector(rAvgGain, wAvgGain float64, rng *sim.RNG, send func(packet.Marker)) *statelessSelector {
	return &statelessSelector{rAvgGain: rAvgGain, wAvgGain: wAvgGain, rng: rng, send: send}
}

func (s *statelessSelector) observe(m packet.Marker) {
	s.markersThisEpoch++
	if !s.ravInit {
		s.rav = m.Rate
		s.ravInit = true
	} else {
		s.rav += float64(s.rAvgGain * (m.Rate - s.rav))
	}
	if s.pw <= 0 {
		return
	}
	switch {
	case s.rng.Bernoulli(s.pw):
		if m.Rate >= s.rav {
			s.send(m)
		} else {
			// Swap with a future above-average marker.
			s.deficit++
			s.deficitCtr.Inc()
			if s.onDeficit != nil {
				s.onDeficit(m.Rate, s.rav)
			}
		}
	case s.deficit > 0 && m.Rate >= s.rav:
		s.send(m)
		s.deficit--
	}
}

func (s *statelessSelector) endEpoch(fn float64) {
	count := s.markersThisEpoch
	s.markersThisEpoch = 0
	if !s.wavInit {
		s.wav = float64(count)
		s.wavInit = true
	} else {
		s.wav += float64(s.wAvgGain * (float64(count) - s.wav))
	}
	s.deficit = 0
	if fn <= 0 || s.wav <= 0 {
		s.pw = 0
		return
	}
	s.pw = fn / s.wav
	if s.pw > 1 {
		s.pw = 1
	}
}
