// Package archive is golden-test input for the lockedcall analyzer's
// chunk-decode detection, mirroring the real Reader's shard shape.
package archive

import "sync"

type shard struct {
	mu    sync.Mutex
	chunk int
	buf   []byte
}

// Reader mirrors the real sharded chunk reader.
type Reader struct {
	shards []shard
}

func (r *Reader) readChunk(k int) ([]byte, error) {
	return make([]byte, 8), nil
}

func decodeStep(rec []byte, dst []float64) error {
	return nil
}

// Decoding while the shard lock is held blocks every reader of the
// shard for the duration.
func (r *Reader) badRead(dst []float64) error {
	sh := &r.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return decodeStep(sh.buf, dst) // want:lockedcall "decodeStep"
}

// The claim-fill-publish shape: every branch releases the lock before
// the decode, so the fall-through decode is lock-free and must not be
// flagged.
func (r *Reader) goodRead(k int, dst []float64) error {
	sh := &r.shards[0]
	rec := make([]byte, 8)
	sh.mu.Lock()
	if sh.chunk == k {
		copy(rec, sh.buf)
		sh.mu.Unlock()
	} else {
		sh.mu.Unlock()
		raw, err := r.readChunk(k)
		if err != nil {
			return err
		}
		sh.mu.Lock()
		sh.buf, sh.chunk = raw, k
		sh.mu.Unlock()
	}
	return decodeStep(rec, dst)
}

// Series mirrors the real batched range cursor enough for the analyzer
// to see a ReadPackedRange call by name.
type Series struct {
	r *Reader
}

func (s *Series) ReadPackedRange(t0, t1 int, fn func(t int, packed []float64) error) error {
	return nil
}

// A batched range walk under the shard lock holds the lock for the
// whole multi-chunk decode — the worst possible critical section.
func (r *Reader) badRange(s *Series, dst []float64) error {
	sh := &r.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.ReadPackedRange(0, 8, func(t int, packed []float64) error { // want:lockedcall "ReadPackedRange"
		copy(dst, packed)
		return nil
	})
}

// The range walk after the bookkeeping unlock is the intended shape:
// the cursor does its own per-chunk shard locking internally.
func (r *Reader) goodRange(s *Series, dst []float64) error {
	sh := &r.shards[0]
	sh.mu.Lock()
	sh.chunk = -1
	sh.mu.Unlock()
	return s.ReadPackedRange(0, 8, func(t int, packed []float64) error {
		copy(dst, packed)
		return nil
	})
}

func (r *Reader) ReadPackedF32(t int, dst []float32) ([]float32, error) {
	return dst, nil
}

// ReadPackedInto mirrors the generic helper both widths instantiate.
func ReadPackedInto[E float32 | float64](r *Reader, t int, dst []E) ([]E, error) {
	return dst, nil
}

func (s *Series) loadChunk(k int) error {
	return nil
}

// The float32 read path decodes exactly as the float64 one does, and the
// cursor's chunk loader is chunk I/O: none of the three may run under
// the shard lock, however the generic helper is spelled.
func (r *Reader) badReadF32(s *Series, dst []float32) error {
	sh := &r.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, err := r.ReadPackedF32(0, dst); err != nil { // want:lockedcall "ReadPackedF32"
		return err
	}
	if _, err := ReadPackedInto(r, 1, dst); err != nil { // want:lockedcall "ReadPackedInto"
		return err
	}
	if _, err := ReadPackedInto[float32](r, 2, dst); err != nil { // want:lockedcall "ReadPackedInto"
		return err
	}
	return s.loadChunk(1) // want:lockedcall "loadChunk"
}

// Bookkeeping under the lock, the reads after it.
func (r *Reader) goodReadF32(s *Series, dst []float32) error {
	sh := &r.shards[0]
	sh.mu.Lock()
	sh.chunk = -1
	sh.mu.Unlock()
	if _, err := ReadPackedInto(r, 1, dst); err != nil {
		return err
	}
	return s.loadChunk(1)
}
