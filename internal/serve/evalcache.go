package serve

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"exaclim/internal/sht"
)

// evalCache is an LRU of one-row sht.Evaluators keyed by quantized (lat,
// lon): dashboards poll the same handful of locations over and over, and
// each evaluator costs an O(L^2) Legendre recursion to build while
// being immutable (and thus shareable across requests) afterwards. The
// key quantum (1e-6 degree, ~0.1 m on the ground) collapses
// textually-identical coordinates onto one slot; an entry additionally
// remembers the exact coordinates it was built at and is bypassed on the
// (pathological) sub-quantum mismatch, so a cached evaluator never
// changes a response by so much as a bit.
type evalCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *evalEntry
	m   map[evalKey]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

// evalQuantum is the key granularity in degrees.
const evalQuantum = 1e-6

// evalKey is the quantized coordinate pair.
type evalKey struct{ qlat, qlon int64 }

type evalEntry struct {
	key      evalKey
	lat, lon float64
	ev       *sht.Evaluator
}

func quantize(v float64) int64 { return int64(math.Round(v / evalQuantum)) }

// newEvalCache builds a cache of at most capEntries evaluators
// (capEntries < 1 disables caching).
func newEvalCache(capEntries int) *evalCache {
	return &evalCache{cap: capEntries, ll: list.New(), m: make(map[evalKey]*list.Element)}
}

// get returns a shared evaluator for (lat, lon) in degrees, building and
// caching one on miss; hit reports whether a cached one was reused (the
// trace eval span records it). theta/phi follow the angles() convention.
func (c *evalCache) get(L int, lat, lon, theta, phi float64) (ev *sht.Evaluator, hit bool) {
	if c.cap < 1 {
		return sht.NewPointBatchEvaluator(L, []float64{theta}, []float64{phi}), false
	}
	key := evalKey{qlat: quantize(lat), qlon: quantize(lon)}
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*evalEntry)
		if e.lat == lat && e.lon == lon {
			c.ll.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Add(1)
			return e.ev, true
		}
	}
	c.mu.Unlock()
	// Build outside the lock: the recursion is the expensive part, and
	// a duplicate build under a race is harmless (last insert wins).
	c.misses.Add(1)
	ev = sht.NewPointBatchEvaluator(L, []float64{theta}, []float64{phi})
	e := &evalEntry{key: key, lat: lat, lon: lon, ev: ev}
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.m[key] = c.ll.PushFront(e)
		for c.ll.Len() > c.cap {
			cold := c.ll.Back()
			c.ll.Remove(cold)
			delete(c.m, cold.Value.(*evalEntry).key)
		}
	}
	c.mu.Unlock()
	return ev, false
}

// EvalCacheStats is the evaluator cache's counter snapshot.
type EvalCacheStats struct {
	// Hits counts point queries that reused a cached evaluator,
	// skipping the O(L^2) Legendre setup.
	Hits int64
	// Misses counts evaluator builds.
	Misses int64
	// Entries is the resident evaluator count.
	Entries int
}

func (c *evalCache) stats() EvalCacheStats {
	c.mu.Lock()
	n := c.ll.Len()
	c.mu.Unlock()
	return EvalCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}
