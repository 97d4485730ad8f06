package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"exaclim/internal/obs"
	"exaclim/internal/sht"
	"exaclim/internal/sphere"
)

// Reader opens an archive for random access: it can seek to any
// (member, scenario, t), decode the step's coefficient vector, and
// synthesize the field on demand — the "replay" half of the storage
// claim, where archived campaigns are reconstructed instead of re-read
// from petabytes of raw grids.
//
// A Reader is safe for concurrent use, and its read path takes no lock.
// Per-step reads and series walks run on Series cursors, one parked per
// series (see WithSeries), so the chunk cache is the cursors' own. For
// replay fan-out, open one Series cursor per goroutine: cursors own
// their decode buffers and synthesis scratch and share nothing mutable
// with the Reader or each other.
type Reader struct {
	h     Header
	r     io.ReaderAt
	size  int64
	index [][]chunkRef
	dim   int
	stepB int

	closer io.Closer

	planOnce sync.Once
	plan     *sht.Plan
	planErr  error

	// idle[sid] parks the cursor that last served a read of series sid
	// (WithSeries), with its most recently read chunk. A read takes it
	// out (or opens a fresh one when another read holds it) and parks it
	// again, so a cursor is only ever used by one goroutine at a time.
	idle []atomic.Pointer[Series]

	// sink receives metric events (see obs.go); nil until SetObserver.
	sink atomic.Pointer[sinkBox]
}

// Open opens the archive file at path; Close releases it.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader opens an archive stored in r (size bytes long), validating
// the header, trailer and chunk index before returning.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	// Header: fixed prefix first, then the full band table.
	prefix := make([]byte, headerPrefixLen)
	if size < headerPrefixLen+trailerLen {
		return nil, fmt.Errorf("archive: file of %d bytes is too short to be an archive", size)
	}
	if _, err := r.ReadAt(prefix, 0); err != nil {
		return nil, fmt.Errorf("archive: reading header: %w", err)
	}
	nbands := int(binary.LittleEndian.Uint32(prefix[48:]))
	if nbands < 0 || nbands > 1<<20 {
		return nil, fmt.Errorf("archive: implausible band count %d", nbands)
	}
	hlen := headerPrefixLen + 9*nbands + 4
	if int64(hlen) > size {
		return nil, fmt.Errorf("archive: file too short for %d-band header", nbands)
	}
	hb := make([]byte, hlen)
	if _, err := r.ReadAt(hb, 0); err != nil {
		return nil, fmt.Errorf("archive: reading header: %w", err)
	}
	h, _, err := decodeHeader(hb)
	if err != nil {
		return nil, err
	}

	// Trailer and index.
	tb := make([]byte, trailerLen)
	if _, err := r.ReadAt(tb, size-trailerLen); err != nil {
		return nil, fmt.Errorf("archive: reading trailer: %w", err)
	}
	if string(tb[8:]) != trailerMagic {
		return nil, fmt.Errorf("archive: missing trailer (file truncated or not finalized)")
	}
	indexOff := int64(binary.LittleEndian.Uint64(tb))
	if indexOff < int64(hlen) || indexOff > size-trailerLen {
		return nil, fmt.Errorf("archive: index offset %d out of bounds", indexOff)
	}
	ib := make([]byte, size-trailerLen-indexOff)
	if _, err := r.ReadAt(ib, indexOff); err != nil {
		return nil, fmt.Errorf("archive: reading index: %w", err)
	}
	index, err := decodeIndex(ib, h)
	if err != nil {
		return nil, err
	}
	stepB := h.StepBytes()
	for sid, refs := range index {
		for k, ref := range refs {
			count := h.ChunkSteps
			if k == len(refs)-1 {
				count = h.Steps - k*h.ChunkSteps
			}
			wantLen := chunkHeaderLen + count*stepB + 4
			if ref.length != uint32(wantLen) {
				return nil, fmt.Errorf("archive: series %d chunk %d has length %d, want %d",
					sid, k, ref.length, wantLen)
			}
			if ref.off < int64(hlen) || ref.off+int64(ref.length) > indexOff {
				return nil, fmt.Errorf("archive: series %d chunk %d at [%d,%d) lies outside the data section",
					sid, k, ref.off, ref.off+int64(ref.length))
			}
		}
	}
	return &Reader{
		h:     h,
		r:     r,
		size:  size,
		index: index,
		dim:   h.Dim(),
		stepB: stepB,
		idle:  make([]atomic.Pointer[Series], h.Series()),
	}, nil
}

// Header returns the archive header (bands shared; treat as read-only).
func (r *Reader) Header() Header { return r.h }

// Close releases the underlying file when the reader owns it.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// ensurePlan lazily builds the synthesis plan.
func (r *Reader) ensurePlan() (*sht.Plan, error) {
	r.planOnce.Do(func() {
		r.plan, r.planErr = sht.NewPlan(r.h.Grid, r.h.L)
	})
	return r.plan, r.planErr
}

// readChunk reads and CRC-verifies chunk k of series sid into buf (grown
// when too small), returning the backing buffer and the chunk's first
// step. It takes no locks: the calling cursor owns buf outright.
func (r *Reader) readChunk(sid, k int, buf []byte) (raw []byte, t0 int, err error) {
	ref := r.index[sid][k]
	if cap(buf) < int(ref.length) {
		buf = make([]byte, ref.length)
	}
	buf = buf[:ref.length]
	if _, err := r.r.ReadAt(buf, ref.off); err != nil {
		return nil, 0, fmt.Errorf("archive: reading chunk: %w", err)
	}
	r.observe(MetricReadBytes, int64(len(buf)))
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(buf[:len(buf)-4]); got != want {
		return nil, 0, fmt.Errorf("archive: series %d chunk %d checksum mismatch (corrupt or truncated chunk)", sid, k)
	}
	member := int(binary.LittleEndian.Uint32(buf[0:]))
	scenario := int(binary.LittleEndian.Uint32(buf[4:]))
	t0 = int(binary.LittleEndian.Uint32(buf[8:]))
	count := int(binary.LittleEndian.Uint32(buf[12:]))
	if r.h.seriesID(member, scenario) != sid || t0 != k*r.h.ChunkSteps {
		return nil, 0, fmt.Errorf("archive: chunk at series %d index %d identifies as member %d scenario %d t0 %d",
			sid, k, member, scenario, t0)
	}
	if chunkHeaderLen+count*r.stepB+4 != len(buf) {
		return nil, 0, fmt.Errorf("archive: series %d chunk %d count %d disagrees with its length", sid, k, count)
	}
	return buf, t0, nil
}

// ReadPacked decodes the packed coefficient vector of step t of
// (member, scenario) into dst (allocated when too small) and returns it.
// The returned data is always caller-owned: it never aliases the chunk
// cache, so it stays valid across any later reads.
func (r *Reader) ReadPacked(member, scenario, t int, dst []float64) ([]float64, error) {
	return ReadPackedInto(r, member, scenario, t, dst)
}

// ReadPackedF32 is ReadPacked decoding straight to float32. Archived
// payloads are at most float32 wide (FP64 bands excepted), so for FP32
// and FP16 bands the narrowing loses nothing beyond what quantization
// already spent.
func (r *Reader) ReadPackedF32(member, scenario, t int, dst []float32) ([]float32, error) {
	return ReadPackedInto(r, member, scenario, t, dst)
}

// ReadPackedInto is ReadPacked at either width (methods cannot be
// generic), for callers generic over it themselves. It runs on the
// series' parked cursor (WithSeries) and decodes the step straight from
// the cursor's chunk buffer.
func ReadPackedInto[E sht.Real](r *Reader, member, scenario, t int, dst []E) ([]E, error) {
	if err := r.h.checkCoord(member, scenario, t); err != nil {
		return nil, err
	}
	err := r.WithSeries(member, scenario, func(cur *Series) error {
		var err error
		dst, err = readStep(cur, t, dst)
		return err
	})
	return dst, err
}

// WithSeries runs fn on the parked cursor of (member, scenario), so its
// chunk buffer and block scratch serve read after read. Swap takes the
// cursor out (a concurrent caller on the same series finds none and
// opens its own, so racing reads never wait on each other); afterwards
// the cursor's observer is cleared and the cursor is parked again — the
// last caller to park wins. fn must not retain the cursor. A failed read
// leaves the cursor without a resident chunk, so the next one re-reads.
func (r *Reader) WithSeries(member, scenario int, fn func(*Series) error) error {
	if err := r.h.checkCoord(member, scenario, 0); err != nil {
		return err
	}
	idle := &r.idle[r.h.seriesID(member, scenario)]
	cur := idle.Swap(nil)
	if cur == nil {
		cur = r.series(member, scenario)
	}
	err := fn(cur)
	cur.sink = nil
	idle.Store(cur)
	return err
}

// ReadField reconstructs the field of step t of (member, scenario) by
// decoding its coefficients and synthesizing on the archive grid.
func (r *Reader) ReadField(member, scenario, t int) (sphere.Field, error) {
	plan, err := r.ensurePlan()
	if err != nil {
		return sphere.Field{}, err
	}
	packed, err := r.ReadPacked(member, scenario, t, nil)
	if err != nil {
		return sphere.Field{}, err
	}
	out := sphere.NewField(r.h.Grid)
	sht.SynthesizePacked(plan, out.Data, packed)
	return out, nil
}

// EachField streams the full series of (member, scenario) through fn in
// step order, reusing one decode and synthesis scratch set (copy the
// field to retain it). A non-nil error from fn stops the replay and is
// returned. Decoding runs over the chunk-granular batch path
// (Series.ReadPackedRange). The synthesis uses the reader's parallel
// plan; callers that fan out over many series should prefer
// per-goroutine Series cursors, whose transforms run sequentially so
// the fan-out happens at exactly one level.
func (r *Reader) EachField(member, scenario int, fn func(t int, f sphere.Field) error) error {
	plan, err := r.ensurePlan()
	if err != nil {
		return err
	}
	s, err := r.Series(member, scenario)
	if err != nil {
		return err
	}
	s.plan = plan
	return s.EachField(0, r.h.Steps, fn)
}

// Series opens an independent, race-free streaming cursor over the
// (member, scenario) series: it owns its chunk buffer, decode state and
// synthesis scratch, so any number of cursors — including several over
// the same series — replay concurrently without sharing a single lock.
// This is what makes replay scale with cores like generation does. A
// cursor is not itself safe for concurrent use; open one per goroutine.
func (r *Reader) Series(member, scenario int) (*Series, error) {
	if err := r.h.checkCoord(member, scenario, 0); err != nil {
		return nil, err
	}
	return r.series(member, scenario), nil
}

// series opens a cursor over a validated (member, scenario).
func (r *Reader) series(member, scenario int) *Series {
	return &Series{
		r:        r,
		member:   member,
		scenario: scenario,
		sid:      r.h.seriesID(member, scenario),
		chunk:    -1,
	}
}

// Series is a streaming cursor over one (member, scenario) series. Its
// transforms run sequentially on the calling goroutine (callers fan out
// over cursors), and everything it decodes into caller-provided
// destinations is copied out of its internal buffers.
type Series struct {
	r        *Reader
	member   int
	scenario int
	sid      int

	chunk int // cached chunk index, -1 when empty
	t0    int
	buf   []byte

	plan   *sht.Plan // lazily built; sequential unless overridden
	packed []float64
	block  []float64 // ReadPackedBlocks' yielded steps (cursor-owned)

	sink obs.Sink // optional per-cursor sink; see Series.SetObserver
}

// SetObserver installs (or, with nil, removes) a per-cursor sink that
// receives this cursor's metric events in addition to the parent
// reader's sink. A cursor is single-goroutine by contract, so a plain
// field suffices; the serving layer uses it to attribute chunk and
// decode counts to the one request driving the cursor (trace span
// attributes) while the reader-level sink keeps the process totals.
func (s *Series) SetObserver(sink obs.Sink) { s.sink = sink }

// observe reports one metric event to the reader's sink and, when set,
// the cursor's own.
func (s *Series) observe(metric string, delta int64) {
	s.r.observe(metric, delta)
	if s.sink != nil {
		s.sink.Add(metric, delta)
	}
}

// Member returns the cursor's member index.
func (s *Series) Member() int { return s.member }

// Scenario returns the cursor's scenario index.
func (s *Series) Scenario() int { return s.scenario }

// Steps returns the number of steps in the series.
func (s *Series) Steps() int { return s.r.h.Steps }

// loadChunk makes chunk k the cursor's resident chunk, reading it unless
// it already is — the one chunk loader under per-step and range reads.
func (s *Series) loadChunk(k int) error {
	if s.chunk == k {
		s.observe(MetricChunkHits, 1)
		return nil
	}
	// Invalidate before reading: a failed readChunk clobbers the reused
	// buffer, so the old cache key must not survive it.
	s.chunk = -1
	s.observe(MetricChunkMisses, 1)
	raw, t0, err := s.r.readChunk(s.sid, k, s.buf)
	if err != nil {
		return err
	}
	if s.sink != nil {
		// readChunk reports its byte count to the reader sink only;
		// mirror it to the cursor sink so per-request attribution sees
		// the I/O its own chunk misses caused.
		s.sink.Add(MetricReadBytes, int64(len(raw)))
	}
	s.buf, s.t0, s.chunk = raw, t0, k
	return nil
}

// stepRecord returns a view of the raw record of step t, which must lie
// in the resident chunk. The view is valid until the next loadChunk.
func (s *Series) stepRecord(t int) []byte {
	off := chunkHeaderLen + (t-s.t0)*s.r.stepB
	return s.buf[off : off+s.r.stepB]
}

// ReadPacked decodes the packed coefficient vector of step t into dst
// (allocated when too small) and returns it. Like Reader.ReadPacked, the
// returned data never aliases cursor state.
func (s *Series) ReadPacked(t int, dst []float64) ([]float64, error) {
	if err := s.r.h.checkCoord(s.member, s.scenario, t); err != nil {
		return nil, err
	}
	return readStep(s, t, dst)
}

// readStep is the one single-step read under Series.ReadPacked and
// ReadPackedInto: it decodes validated step t of cursor s into dst
// (allocated when too small) straight from the cursor's chunk buffer.
func readStep[E sht.Real](s *Series, t int, dst []E) ([]E, error) {
	if cap(dst) < s.r.dim {
		dst = make([]E, s.r.dim)
	}
	dst = dst[:s.r.dim]
	if err := s.loadChunk(t / s.r.h.ChunkSteps); err != nil {
		return nil, err
	}
	if err := decodeStep(s.stepRecord(t), s.r.h.Bands, dst, nil); err != nil {
		return nil, err
	}
	s.observe(MetricStepDecodes, 1)
	return dst, nil
}

// ensurePlan builds the cursor's synthesis plan on first field read: the
// reader's shared tables, run sequentially on the calling goroutine.
func (s *Series) ensurePlan() (*sht.Plan, error) {
	if s.plan != nil {
		return s.plan, nil
	}
	plan, err := s.r.ensurePlan()
	if err != nil {
		return nil, err
	}
	s.plan = plan.Sequential()
	return s.plan, nil
}

// ReadFieldInto decodes step t and synthesizes it into dst, which must
// live on the archive grid. Scratch is cursor-owned, so concurrent
// cursors never contend.
func (s *Series) ReadFieldInto(dst sphere.Field, t int) error {
	plan, err := s.ensurePlan()
	if err != nil {
		return err
	}
	if dst.Grid != s.r.h.Grid {
		return fmt.Errorf("archive: destination grid %v does not match archive grid %v", dst.Grid, s.r.h.Grid)
	}
	packed, err := s.ReadPacked(t, s.packed)
	if err != nil {
		return err
	}
	s.packed = packed
	sht.SynthesizePacked(plan, dst.Data, packed)
	return nil
}

// Size returns the archive file size in bytes — the measured storage
// cost the paper's savings claim compares against raw grids.
func (r *Reader) Size() int64 { return r.size }

// RelErrBound returns the policy budget the archive was planned for, or
// NaN when the header does not record one.
func (r *Reader) RelErrBound() float64 {
	if r.h.MaxRelErr == 0 {
		return math.NaN()
	}
	return r.h.MaxRelErr
}
