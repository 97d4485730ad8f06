package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// fieldCache is a sharded LRU over synthesized fields with single-flight
// load coalescing: N concurrent requests for one missing key trigger
// exactly one underlying load, and every waiter receives the loader's
// result. Keys hash to shards, so requests for different fields contend
// only within a shard; the load itself (archive decode + synthesis, or
// live emulation) always runs outside any lock.
//
// Values are shared read-only float64 slices: callers must not mutate
// what Get returns. That is what makes a cache hit byte-identical to the
// uncached read — the loader's slice is handed to every requester as-is.
//
// Beside its grid an entry keeps the finished /v1/field response bodies
// it has been asked for (body, keepBody), so a resident field is encoded
// at most once per body form. Bodies count toward the shard's byte
// budget and leave with their grid.
type fieldCache struct {
	shards []cacheShard
	mask   uint64

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

// cacheKey identifies one cached field. live distinguishes the archive
// and live-emulation namespaces, which share member/scenario/t shapes.
type cacheKey struct {
	live                bool
	member, scenario, t int
}

// hash mixes the key fields (fibonacci hashing on a flat encoding).
func (k cacheKey) hash() uint64 {
	h := uint64(k.member)*0x9e3779b97f4a7c15 ^ uint64(k.scenario)*0xbf58476d1ce4e5b9 ^ uint64(k.t)*0x94d049bb133111eb
	if k.live {
		h ^= 0xd6e8feb86659fd93
	}
	h ^= h >> 29
	return h * 0x9e3779b97f4a7c15
}

// bodyForm names one of the four /v1/field response bodies: the format
// (JSON or raw float32) crossed with the content encoding (identity or
// gzip). Bit 0 is the gzip bit, so form&^1 is a gzip form's identity
// twin.
type bodyForm uint8

const (
	bodyJSON bodyForm = iota
	bodyJSONGzip
	bodyF32
	bodyF32Gzip
	bodyForms // the number of forms
)

// gzipped reports whether the form is gzip-compressed.
func (f bodyForm) gzipped() bool { return f&1 != 0 }

// identity returns the uncompressed form the gzip form compresses.
func (f bodyForm) identity() bodyForm { return f &^ 1 }

// cacheEntry is one resident field, a node of its shard's LRU list.
// bodies is guarded by the shard lock; val is immutable.
type cacheEntry struct {
	key        cacheKey
	val        []float64
	bodies     [bodyForms][]byte
	prev, next *cacheEntry
}

// size is the entry's charge against its shard: 8 bytes per float64
// value plus the length of every body it keeps.
func (e *cacheEntry) size() int64 {
	n := int64(len(e.val)) * 8
	for _, b := range e.bodies {
		n += int64(len(b))
	}
	return n
}

// flight is one in-progress load; waiters block on done.
type flight struct {
	done chan struct{}
	val  []float64
	err  error
}

// cacheShard holds one LRU segment plus its in-flight loads. The
// sentinel's next is the most recently used entry.
type cacheShard struct {
	mu       sync.Mutex
	entries  map[cacheKey]*cacheEntry
	flights  map[cacheKey]*flight
	sentinel cacheEntry // ring list head
	bytes    int64
	capacity int64
}

// cacheShards is the server's shard count: more shards means less lock
// contention across distinct hot fields, fewer keeps LRU order closer to
// exact.
const cacheShards = 16

// newFieldCache builds a cache of capacityBytes split over shards
// (rounded up to a power of two, at least 1).
func newFieldCache(capacityBytes int64, shards int) *fieldCache {
	n := 1
	for n < shards {
		n <<= 1
	}
	if capacityBytes < 1 {
		capacityBytes = 1
	}
	c := &fieldCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	per := capacityBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.entries = make(map[cacheKey]*cacheEntry)
		sh.flights = make(map[cacheKey]*flight)
		sh.sentinel.prev = &sh.sentinel
		sh.sentinel.next = &sh.sentinel
		sh.capacity = per
	}
	return c
}

func (c *fieldCache) shard(k cacheKey) *cacheShard {
	return &c.shards[k.hash()&c.mask]
}

// unlink removes e from the LRU ring.
func (e *cacheEntry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// pushFront inserts e as most recently used. Called with the shard lock.
func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.next = sh.sentinel.next
	e.prev = &sh.sentinel
	e.next.prev = e
	sh.sentinel.next = e
}

// insert adds a loaded value and evicts from the cold end until the
// shard fits its capacity. Called with the shard lock held.
func (sh *cacheShard) insert(c *fieldCache, key cacheKey, val []float64) {
	if old, ok := sh.entries[key]; ok {
		sh.bytes -= old.size()
		old.unlink()
		delete(sh.entries, key)
	}
	e := &cacheEntry{key: key, val: val}
	sh.entries[key] = e
	sh.pushFront(e)
	sh.bytes += e.size()
	sh.fit(c)
}

// fit evicts from the cold end, grid and bodies together, until the
// shard is within its capacity. Called with the shard lock held.
func (sh *cacheShard) fit(c *fieldCache) {
	for sh.bytes > sh.capacity && sh.sentinel.prev != &sh.sentinel {
		cold := sh.sentinel.prev
		cold.unlink()
		delete(sh.entries, cold.key)
		sh.bytes -= cold.size()
		c.evictions.Add(1)
	}
}

// getOrLoad returns the cached value for key, or runs load exactly once
// across all concurrent callers and caches its result. The returned
// slice is shared and read-only.
//
// ctx bounds only this caller's wait on someone else's flight: a
// cancelled waiter leaves immediately with ctx.Err() while the flight —
// shared work whose result every other waiter and the cache keep —
// always runs to completion. (The loading caller itself does not watch
// ctx mid-load for the same reason: aborting would fail the waiters it
// coalesced.)
func (c *fieldCache) getOrLoad(ctx context.Context, key cacheKey, load func() ([]float64, error)) ([]float64, error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		e.unlink()
		sh.pushFront(e)
		sh.mu.Unlock()
		// Counter and trace annotation run after the unlock — metric
		// observation under a shard lock is a lockedcall violation.
		c.hits.Add(1)
		noteCacheOutcome(ctx, "hit")
		return e.val, nil
	}
	if f, ok := sh.flights[key]; ok {
		sh.mu.Unlock()
		c.coalesced.Add(1)
		noteCacheOutcome(ctx, "coalesced")
		// The wait on someone else's load is its own stage: a trace of
		// a coalesced request shows time blocked, not time working.
		wt := beginStage(ctx, stageCacheWait)
		select {
		case <-f.done:
			wt.end()
			return f.val, f.err
		case <-ctx.Done():
			wt.end()
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[key] = f
	sh.mu.Unlock()
	c.misses.Add(1)
	noteCacheOutcome(ctx, "miss")

	// If the loader panics, release the flight with an error before
	// re-panicking: otherwise every waiter (and all future requests for
	// this key) would block forever on a done channel nobody closes.
	defer func() {
		if r := recover(); r != nil {
			sh.mu.Lock()
			delete(sh.flights, key)
			sh.mu.Unlock()
			f.val, f.err = nil, fmt.Errorf("serve: cache load panicked: %v", r)
			close(f.done)
			panic(r)
		}
	}()
	f.val, f.err = load()

	sh.mu.Lock()
	delete(sh.flights, key)
	if f.err == nil {
		sh.insert(c, key, f.val)
	}
	sh.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// add inserts a value outside a flight — the opportunistic path live
// emulation uses to cache every step it had to generate on the way to
// the requested one. A key with an in-progress flight is skipped (the
// flight's own result wins).
func (c *fieldCache) add(key cacheKey, val []float64) {
	sh := c.shard(key)
	sh.mu.Lock()
	if _, inFlight := sh.flights[key]; !inFlight {
		sh.insert(c, key, val)
	}
	sh.mu.Unlock()
}

// body returns the resident field's stored body of form f, or nil when
// the field is not resident or that form has not been kept yet.
func (c *fieldCache) body(key cacheKey, f bodyForm) []byte {
	sh := c.shard(key)
	sh.mu.Lock()
	var b []byte
	if e, ok := sh.entries[key]; ok {
		b = e.bodies[f]
	}
	sh.mu.Unlock()
	return b
}

// keepBody stores b as the resident field's body of form f, charges its
// length to the shard and evicts from the cold end as insert does. It
// returns the body to send: the one already stored when a racing
// request kept the same form first (encoding is deterministic, so the
// two are equal and the bytes are counted once), else b. A body whose
// field is no longer resident is not kept. Encoding happens before the
// call, outside the lock.
func (c *fieldCache) keepBody(key cacheKey, f bodyForm, b []byte) []byte {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return b
	}
	if kept := e.bodies[f]; kept != nil {
		return kept
	}
	e.bodies[f] = b
	sh.bytes += int64(len(b))
	sh.fit(c)
	return b
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	// Hits counts requests answered from resident entries.
	Hits int64
	// Misses counts requests that ran the underlying load.
	Misses int64
	// Coalesced counts requests that waited on another request's load
	// instead of running their own — the single-flight savings.
	Coalesced int64
	// Evictions counts entries dropped by the LRU capacity bound.
	Evictions int64
	// Bytes and Entries size the resident set: grids at 8 bytes a
	// value plus every kept response body.
	Bytes   int64
	Entries int
}

// stats snapshots the counters and resident totals.
func (c *fieldCache) stats() CacheStats {
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Bytes += sh.bytes
		s.Entries += len(sh.entries)
		sh.mu.Unlock()
	}
	return s
}
