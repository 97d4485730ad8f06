package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheSingleFlight is the core coalescing property: many goroutines
// racing for one missing key run the loader exactly once and all observe
// its result.
func TestCacheSingleFlight(t *testing.T) {
	c := newFieldCache(1<<20, 4)
	key := cacheKey{member: 1, scenario: 2, t: 3}
	var loads atomic.Int64
	release := make(chan struct{})

	const N = 48
	results := make([][]float64, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.getOrLoad(context.Background(), key, func() ([]float64, error) {
				loads.Add(1)
				<-release // hold the flight open so everyone piles up
				return []float64{1, 2, 3}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want exactly 1", n)
	}
	for i, v := range results {
		if len(v) != 3 || v[0] != 1 || v[1] != 2 || v[2] != 3 {
			t.Fatalf("goroutine %d got %v", i, v)
		}
	}
	s := c.stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Coalesced != N-1 {
		t.Errorf("hits %d + coalesced %d = %d, want %d", s.Hits, s.Coalesced, s.Hits+s.Coalesced, N-1)
	}
}

// TestCacheErrorNotCached pins that a failed load is not cached: the
// next request retries the loader.
func TestCacheErrorNotCached(t *testing.T) {
	c := newFieldCache(1<<20, 1)
	key := cacheKey{t: 1}
	calls := 0
	_, err := c.getOrLoad(context.Background(), key, func() ([]float64, error) {
		calls++
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	v, err := c.getOrLoad(context.Background(), key, func() ([]float64, error) {
		calls++
		return []float64{9}, nil
	})
	if err != nil || len(v) != 1 || v[0] != 9 {
		t.Fatalf("retry got %v, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("loader ran %d times, want 2", calls)
	}
	if s := c.stats(); s.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (only the success)", s.Entries)
	}
}

// TestCacheEviction fills a tiny cache past capacity and checks the LRU
// end is dropped while recently used entries survive.
func TestCacheEviction(t *testing.T) {
	// One shard, capacity for two 8-value entries (2 * 64 bytes).
	c := newFieldCache(128, 1)
	load := func(id int) func() ([]float64, error) {
		return func() ([]float64, error) {
			v := make([]float64, 8)
			v[0] = float64(id)
			return v, nil
		}
	}
	k := func(id int) cacheKey { return cacheKey{t: id} }
	for id := 0; id < 2; id++ {
		if _, err := c.getOrLoad(context.Background(), k(id), load(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 0 so 1 is the LRU victim when 2 arrives.
	if _, err := c.getOrLoad(context.Background(), k(0), load(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.getOrLoad(context.Background(), k(2), load(2)); err != nil {
		t.Fatal(err)
	}
	s := c.stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.Entries != 2 || s.Bytes != 128 {
		t.Fatalf("entries=%d bytes=%d, want 2 entries / 128 bytes", s.Entries, s.Bytes)
	}
	// The evicted key must reload (a fresh miss), the survivors must hit.
	misses := s.Misses
	if _, err := c.getOrLoad(context.Background(), k(1), load(1)); err != nil {
		t.Fatal(err)
	}
	if got := c.stats().Misses; got != misses+1 {
		t.Fatalf("key 1 did not reload (misses %d -> %d)", misses, got)
	}
}

// TestCacheAddSkipsInFlight pins that add() defers to an in-progress
// flight for the same key, so opportunistic inserts can never clobber a
// coalesced load's result.
func TestCacheAddSkipsInFlight(t *testing.T) {
	c := newFieldCache(1<<20, 1)
	key := cacheKey{t: 7}
	inLoad := make(chan struct{})
	release := make(chan struct{})
	done := make(chan []float64)
	go func() {
		v, _ := c.getOrLoad(context.Background(), key, func() ([]float64, error) {
			close(inLoad)
			<-release
			return []float64{1}, nil
		})
		done <- v
	}()
	<-inLoad
	c.add(key, []float64{2}) // must be ignored: flight in progress
	close(release)
	if v := <-done; v[0] != 1 {
		t.Fatalf("flight result %v, want [1]", v)
	}
	v, err := c.getOrLoad(context.Background(), key, func() ([]float64, error) { return nil, fmt.Errorf("should hit") })
	if err != nil || v[0] != 1 {
		t.Fatalf("cached value %v, %v; want the flight's [1]", v, err)
	}
}

// TestCacheConcurrentMixed hammers a small cache from many goroutines
// with overlapping keys, adds and evictions — the -race exercise for the
// shard locking. Values are keyed to their content so any cross-key
// corruption is detected.
func TestCacheConcurrentMixed(t *testing.T) {
	c := newFieldCache(4096, 4)
	const N, keys = 16, 32
	var wg sync.WaitGroup
	for g := 0; g < N; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < 200; it++ {
				id := rng.Intn(keys)
				key := cacheKey{member: id % 3, scenario: id % 5, t: id}
				want := float64(id)
				if rng.Intn(4) == 0 {
					v := make([]float64, 8)
					v[0] = want
					c.add(key, v)
					continue
				}
				v, err := c.getOrLoad(context.Background(), key, func() ([]float64, error) {
					out := make([]float64, 8)
					out[0] = want
					return out, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v[0] != want {
					t.Errorf("key %d returned value %v", id, v[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCachePanickingLoader pins that a loader panic releases the
// flight: waiters get an error instead of blocking forever, the panic
// propagates to the loading caller, and the key stays usable.
func TestCachePanickingLoader(t *testing.T) {
	c := newFieldCache(1<<20, 1)
	key := cacheKey{t: 9}
	inLoad := make(chan struct{})
	release := make(chan struct{})

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.getOrLoad(context.Background(), key, func() ([]float64, error) {
			close(inLoad)
			<-release
			panic("loader exploded")
		})
	}()
	<-inLoad
	waitErr := make(chan error, 1)
	go func() {
		_, err := c.getOrLoad(context.Background(), key, func() ([]float64, error) { return []float64{1}, nil })
		waitErr <- err
	}()
	// Give the waiter time to register on the flight, then let the
	// loader panic.
	for c.stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-panicked; r == nil {
		t.Fatal("loader panic did not propagate to the loading caller")
	}
	err := <-waitErr
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("waiter error = %v, want a load-panicked error", err)
	}
	// The key must be recoverable: a fresh load succeeds.
	v, err := c.getOrLoad(context.Background(), key, func() ([]float64, error) { return []float64{5}, nil })
	if err != nil || v[0] != 5 {
		t.Fatalf("post-panic reload got %v, %v", v, err)
	}
}

// TestGetOrLoadWaiterCancel pins the wait-vs-work split of the
// single-flight contract: a coalesced waiter whose context is cancelled
// leaves immediately with ctx.Err(), while the flight it was waiting on
// runs to completion and still populates the cache for everyone else.
func TestGetOrLoadWaiterCancel(t *testing.T) {
	c := newFieldCache(1<<20, 1)
	key := cacheKey{member: 1, scenario: 2, t: 3}
	inLoad := make(chan struct{})
	release := make(chan struct{})
	var loads atomic.Int64
	go func() {
		c.getOrLoad(context.Background(), key, func() ([]float64, error) {
			loads.Add(1)
			close(inLoad)
			<-release
			return []float64{42}, nil
		})
	}()
	<-inLoad

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.getOrLoad(ctx, key, func() ([]float64, error) {
			t.Error("waiter must coalesce, not load")
			return nil, nil
		})
		waiterErr <- err
	}()
	// The waiter is parked on the flight (or about to be); cancelling
	// must release it even though the flight is still running.
	cancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return while the flight was in progress")
	}

	close(release)
	v, err := c.getOrLoad(context.Background(), key, func() ([]float64, error) {
		t.Error("flight result must be cached; no second load")
		return nil, nil
	})
	if err != nil || len(v) != 1 || v[0] != 42 {
		t.Fatalf("post-flight read = %v, %v; want [42]", v, err)
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("loads = %d, want 1", n)
	}
}
