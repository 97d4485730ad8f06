package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"exaclim/internal/sht"
	"exaclim/internal/sphere"
)

// Writer streams a campaign into an archive. It is safe for concurrent
// use by the EmulateEnsemble callback: different (member, scenario)
// series may be appended from different goroutines at once, while within
// one series steps must arrive in order (out-of-order steps are
// rejected, never silently misplaced). Encoding and spherical harmonic
// analysis run on the calling goroutine with pooled scratch; only the
// final chunk append takes the file lock.
type Writer struct {
	h     Header
	dim   int
	stepB int

	planOnce sync.Once
	plan     *sht.Plan
	planErr  error
	packPool sync.Pool

	series []wSeries

	mu     sync.Mutex // guards w, off, index, err, closed
	w      io.Writer
	closer io.Closer
	off    int64
	index  [][]chunkRef
	err    error
	closed bool
}

// wSeries is the per-(member, scenario) streaming state. Its mutex makes
// the writer robust to any caller threading; the ensemble engine already
// serializes steps within a series, so the lock is uncontended there.
type wSeries struct {
	mu        sync.Mutex
	next      int    // next expected step
	t0        int    // first step of the open chunk
	count     int    // steps buffered in the open chunk
	buf       []byte // open chunk: header placeholder + encoded steps
	fields    int64
	sumRelErr float64
	maxRelErr float64
}

// WriterStats reports what a writer has measured so far: actual bytes on
// disk (the numerator of the paper's storage claim) and the
// coefficient-domain quantization error tracked during encoding.
type WriterStats struct {
	// Fields is the number of steps appended.
	Fields int64
	// Bytes is the total file size so far, including header, chunk
	// framing and (after Close) the index.
	Bytes int64
	// BytesPerField is Bytes/Fields (0 before the first field).
	BytesPerField float64
	// MeanRelErr and MaxRelErr summarize the per-step relative L2
	// quantization error of the stored coefficients versus the float64
	// originals — the measured counterpart of the policy budget.
	MeanRelErr, MaxRelErr float64
}

// NewWriter writes the header for h to w and returns a Writer appending
// to it. The caller owns w; use Create for a file-backed archive that
// Close finalizes and closes.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	h = h.withDefaults()
	if err := h.validate(); err != nil {
		return nil, err
	}
	hb := encodeHeader(h)
	if _, err := w.Write(hb); err != nil {
		return nil, fmt.Errorf("archive: writing header: %w", err)
	}
	wr := &Writer{
		h:      h,
		dim:    h.Dim(),
		stepB:  h.StepBytes(),
		w:      w,
		off:    int64(len(hb)),
		series: make([]wSeries, h.Series()),
		index:  make([][]chunkRef, h.Series()),
	}
	wr.packPool.New = func() any {
		s := make([]float64, wr.dim)
		return &s
	}
	return wr, nil
}

// Create creates (or truncates) the file at path and returns a Writer
// whose Close finalizes and closes it.
func Create(path string, h Header) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, h)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.closer = f
	return w, nil
}

// Header returns the archive header (bands shared; treat as read-only).
func (w *Writer) Header() Header { return w.h }

// ensurePlan lazily builds the analysis plan; AddPacked-only writers
// never pay for it.
func (w *Writer) ensurePlan() (*sht.Plan, error) {
	w.planOnce.Do(func() {
		p, err := sht.NewPlan(w.h.Grid, w.h.L)
		if err != nil {
			w.planErr = err
			return
		}
		// Callers fan out over members, so each analysis runs serially.
		w.plan = p.Sequential()
	})
	return w.plan, w.planErr
}

// AddField analyzes f on the archive grid and appends its packed
// spherical harmonic coefficients as step t of (member, scenario).
// Content of f above the archive band limit is truncated — that spectral
// truncation, not quantization, is the lossy half of the compression,
// exactly as in the emulator itself.
func (w *Writer) AddField(member, scenario, t int, f sphere.Field) error {
	plan, err := w.ensurePlan()
	if err != nil {
		return err
	}
	if f.Grid != w.h.Grid {
		return fmt.Errorf("archive: field grid %v does not match archive grid %v", f.Grid, w.h.Grid)
	}
	packed := w.packPool.Get().(*[]float64)
	*packed = plan.AnalyzePacked(*packed, f)
	err = w.AddPacked(member, scenario, t, *packed)
	w.packPool.Put(packed)
	return err
}

// AddPacked appends an already-packed coefficient vector (length L^2, in
// sht.PackReal layout) as step t of (member, scenario). Steps of one
// series must arrive in order; series are independent.
func (w *Writer) AddPacked(member, scenario, t int, packed []float64) error {
	if err := w.h.checkCoord(member, scenario, t); err != nil {
		return err
	}
	if len(packed) != w.dim {
		return fmt.Errorf("archive: packed length %d, want %d", len(packed), w.dim)
	}
	// Fast-fail once a chunk write has failed: without this, a series
	// whose flush errored would buffer every remaining step in memory
	// (its count is already past ChunkSteps, so the flush trigger below
	// never fires again) and report success until Close.
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	st := &w.series[w.h.seriesID(member, scenario)]
	st.mu.Lock()
	defer st.mu.Unlock()
	if t != st.next {
		return fmt.Errorf("archive: member %d scenario %d: step %d out of order (expected %d)",
			member, scenario, t, st.next)
	}
	if st.count == 0 {
		st.t0 = t
		if st.buf == nil {
			st.buf = make([]byte, 0, chunkHeaderLen+w.h.ChunkSteps*w.stepB+4)
		}
		st.buf = st.buf[:0]
		st.buf = binary.LittleEndian.AppendUint32(st.buf, uint32(member))
		st.buf = binary.LittleEndian.AppendUint32(st.buf, uint32(scenario))
		st.buf = binary.LittleEndian.AppendUint32(st.buf, uint32(t))
		st.buf = binary.LittleEndian.AppendUint32(st.buf, 0) // count patched at flush
	}
	var err2, norm2 float64
	st.buf, err2, norm2 = appendStep(st.buf, w.h.Bands, packed)
	if norm2 > 0 {
		rel := math.Sqrt(err2 / norm2)
		st.sumRelErr += rel
		if rel > st.maxRelErr {
			st.maxRelErr = rel
		}
	}
	st.fields++
	st.count++
	st.next++
	if st.count >= w.h.ChunkSteps || st.next == w.h.Steps {
		return w.flushChunk(member, scenario, st)
	}
	return nil
}

// flushChunk seals the open chunk (patches the count, appends the CRC)
// and appends it to the file, recording its index entry. Called with the
// series lock held.
func (w *Writer) flushChunk(member, scenario int, st *wSeries) error {
	binary.LittleEndian.PutUint32(st.buf[12:], uint32(st.count))
	st.buf = binary.LittleEndian.AppendUint32(st.buf, crc32.ChecksumIEEE(st.buf))
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("archive: write after Close")
	}
	if _, err := w.w.Write(st.buf); err != nil {
		w.err = fmt.Errorf("archive: writing chunk: %w", err)
		return w.err
	}
	sid := w.h.seriesID(member, scenario)
	w.index[sid] = append(w.index[sid], chunkRef{off: w.off, length: uint32(len(st.buf))})
	w.off += int64(len(st.buf))
	st.count = 0
	return nil
}

// Close verifies every series is complete, writes the chunk index and
// trailer, and closes the underlying file when the writer owns it. A
// writer whose campaign did not reach Header.Steps on every series
// returns an error (the file is left without an index and will not
// open).
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("archive: already closed")
	}
	w.closed = true
	err := w.err
	w.mu.Unlock()

	if err == nil {
		for sid := range w.series {
			st := &w.series[sid]
			st.mu.Lock()
			next := st.next
			st.mu.Unlock()
			if next != w.h.Steps {
				err = fmt.Errorf("archive: series member %d scenario %d incomplete: %d of %d steps",
					sid%w.h.Members, sid/w.h.Members, next, w.h.Steps)
				break
			}
		}
	}
	if err == nil {
		w.mu.Lock()
		ib := encodeIndex(w.index)
		indexOff := w.off
		if _, werr := w.w.Write(ib); werr != nil {
			err = fmt.Errorf("archive: writing index: %w", werr)
		} else {
			w.off += int64(len(ib))
			var tb []byte
			tb = binary.LittleEndian.AppendUint64(tb, uint64(indexOff))
			tb = append(tb, trailerMagic...)
			if _, werr := w.w.Write(tb); werr != nil {
				err = fmt.Errorf("archive: writing trailer: %w", werr)
			} else {
				w.off += int64(len(tb))
			}
		}
		w.mu.Unlock()
	}
	if w.closer != nil {
		if cerr := w.closer.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Stats aggregates the per-series measurements.
func (w *Writer) Stats() WriterStats {
	var s WriterStats
	var sumRel float64
	for sid := range w.series {
		st := &w.series[sid]
		st.mu.Lock()
		s.Fields += st.fields
		sumRel += st.sumRelErr
		if st.maxRelErr > s.MaxRelErr {
			s.MaxRelErr = st.maxRelErr
		}
		st.mu.Unlock()
	}
	w.mu.Lock()
	s.Bytes = w.off
	w.mu.Unlock()
	if s.Fields > 0 {
		s.BytesPerField = float64(s.Bytes) / float64(s.Fields)
		s.MeanRelErr = sumRel / float64(s.Fields)
	}
	return s
}
