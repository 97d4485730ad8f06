// Package exaclim is a from-scratch Go implementation of the exascale
// climate emulator of Abdulah et al., "Boosting Earth System Model
// Outputs And Saving PetaBytes in Their Storage Using Exascale Climate
// Emulators" (SC 2024, arXiv:2408.04440).
//
// The emulator represents spatio-temporal climate fields as a
// deterministic trend (radiative-forcing response plus harmonic cycles)
// and a stochastic component modeled in the spherical harmonic domain: an
// exact fast SHT moves fields to spectral space, a diagonal VAR(P)
// captures temporal dependence, the innovation covariance is estimated
// empirically and factorized with a tile-based mixed-precision Cholesky
// (DP / DP-SP / DP-SP-HP / DP-HP tile layouts) on a dynamic task runtime,
// and emulation runs the chain in reverse. A calibrated performance model
// of Frontier, Alps, Leonardo and Summit reproduces the paper's
// scalability study; it is not part of this package (internal/cluster;
// `go run ./cmd/repro` prints it against the paper's numbers).
//
// This root package is the stable public surface. Typical use:
//
//	gen, _ := exaclim.NewSynthetic(exaclim.SyntheticConfig{
//		Grid: exaclim.GridForBandLimit(24), L: 24, StepsPerDay: 1,
//	})
//	sim := gen.Run(2 * exaclim.DaysPerYear)
//	model, _ := exaclim.Train([][]exaclim.Field{sim}, gen.AnnualRF(15, 3), 15,
//		exaclim.Config{L: 16, P: 3, Variant: exaclim.DPHP,
//			Trend: exaclim.TrendOptions{StepsPerYear: exaclim.DaysPerYear, K: 2}})
//	fields, _ := model.Emulate(1, 0, 365)
//
// A trained Model is safe for concurrent use, and the ensemble engine
// generates many members across many forcing scenarios at once — the
// paper's core workload of boosting a handful of stored simulations into
// an arbitrarily large emulated ensemble. Fields stream to the callback
// (copy to retain; they are worker scratch), so a campaign's memory
// footprint stays at O(workers) fields regardless of its size:
//
//	spec := exaclim.EnsembleSpec{Members: 100, Steps: 365, BaseSeed: 1,
//		Scenarios: []exaclim.EnsembleScenario{
//			{Name: "training"},
//			{Name: "mitigation", AnnualRF: rf}}}
//	model.EmulateEnsemble(spec, func(member, scenario, t int, f exaclim.Field) {
//		// Each (member, scenario) series is byte-identical to
//		// model.Emulate(exaclim.MemberSeed(1, member, scenario), 0, 365).
//	})
package exaclim

import (
	"io"

	"exaclim/internal/archive"
	"exaclim/internal/emulator"
	"exaclim/internal/era5"
	"exaclim/internal/forcing"
	"exaclim/internal/obs"
	"exaclim/internal/serve"
	"exaclim/internal/sht"
	"exaclim/internal/source"
	"exaclim/internal/sphere"
	"exaclim/internal/stats"
	"exaclim/internal/storagemodel"
	"exaclim/internal/tile"
	"exaclim/internal/trend"
)

// Core geometric and data types.
type (
	// Grid is an equiangular latitude-longitude grid with both poles.
	Grid = sphere.Grid
	// Field is a scalar field on a Grid.
	Field = sphere.Field
	// Coeffs holds spherical harmonic coefficients of a real field.
	Coeffs = sht.Coeffs
	// SHT is a planned spherical harmonic transform.
	SHT = sht.Plan
)

// Emulator types.
type (
	// Config specifies an emulator design (band limit, VAR order,
	// trend options, Cholesky precision variant).
	Config = emulator.Config
	// Model is a trained emulator.
	Model = emulator.Model
	// TrendOptions configures the deterministic component (eq. 2).
	TrendOptions = trend.Options
	// Variant names a mixed-precision Cholesky configuration.
	Variant = tile.Variant
	// Consistency bundles emulation-vs-simulation statistics.
	Consistency = stats.Consistency
	// EnsembleSpec sizes a multi-member, multi-scenario emulation
	// campaign for Model.EmulateEnsemble.
	EnsembleSpec = emulator.EnsembleSpec
	// EnsembleScenario names the annual forcing one campaign scenario is
	// emulated under (nil forcing keeps the training record).
	EnsembleScenario = emulator.Scenario
)

// Streaming field-source types: the ingest abstraction training
// consumes. A FieldSource yields (realization, t) -> Field series of
// known shape through independent per-realization cursors, so training
// streams residual analysis without holding a campaign in memory.
type (
	// FieldSource is a streaming view of a training campaign.
	FieldSource = source.Ensemble
	// FieldCursor reads one realization's fields; one per goroutine.
	FieldCursor = source.Cursor
	// ArchiveSeries is an independent, race-free streaming cursor over
	// one (member, scenario) series of an archive.
	ArchiveSeries = archive.Series
)

// Data substrate types.
type (
	// SyntheticConfig configures the ERA5-like synthetic data generator.
	SyntheticConfig = era5.Config
	// Synthetic generates ERA5-like global temperature series.
	Synthetic = era5.Generator
	// Scenario is a radiative-forcing concentration pathway generator.
	Scenario = forcing.Scenario
	// Pathway is a named annual radiative-forcing series — the
	// first-class forcing unit: training spans a set of them (one per
	// scenario) and live serving answers "what-if" queries under them.
	Pathway = forcing.Pathway
	// PathwaySet is an ordered collection of uniquely named pathways,
	// the forcing record of a multi-scenario campaign. Serializable to
	// the JSON pathway-file format via Save/LoadPathwaySet.
	PathwaySet = forcing.Set
)

// Spectral-archive types: the chunked, mixed-precision on-disk store
// that turns the storage claim into measured bytes (emulate a campaign
// into an ArchiveWriter, seek and replay through an ArchiveReader).
type (
	// ArchiveHeader freezes an archive's grid, band limit, campaign
	// shape, chunking and per-degree-band precision table.
	ArchiveHeader = archive.Header
	// ArchiveBand assigns one storage precision to a degree range.
	ArchiveBand = archive.Band
	// ArchivePolicy plans band precisions from a power spectrum under a
	// relative reconstruction-error budget.
	ArchivePolicy = archive.Policy
	// ArchiveWriter streams campaign fields into an archive file.
	ArchiveWriter = archive.Writer
	// ArchiveReader seeks to any (member, scenario, t) and synthesizes
	// the stored field on demand.
	ArchiveReader = archive.Reader
	// ArchiveWriterStats reports measured bytes and quantization error.
	ArchiveWriterStats = archive.WriterStats
	// Precision names a storage width (FP64/FP32/FP16), shared between
	// archive bands and Cholesky tiles.
	Precision = tile.Precision
	// ReconError is the max/RMS/relative reconstruction-error metric
	// used to verify archive replays against reference fields.
	ReconError = stats.ReconError
	// StorageReport compares raw-archive and model/archive byte counts.
	StorageReport = storagemodel.Report
)

// Archive storage precisions.
const (
	FP64 = tile.FP64
	FP32 = tile.FP32
	FP16 = tile.FP16
)

// Serving types: the concurrent query subsystem that lets consumers
// read climate fields back on demand — full fields, point/box time
// series, or ensemble statistics — from a spectral archive (plus live
// emulation for scenarios the archive does not hold) over an HTTP
// JSON/binary API. Field requests ride a sharded single-flight LRU
// cache; point and box requests are answered by O(L^2) spectral
// evaluation without ever synthesizing a full grid.
type (
	// Server answers concurrent field/point/box/statistics queries over
	// one archive and, optionally, one trained model. Build with
	// NewServer; Server.Handler returns the HTTP API; the query methods
	// (Field, PointSeries, BoxSeries, EnsembleStats) serve in-process
	// callers. Safe for concurrent use by any number of goroutines.
	Server = serve.Server
	// ServeConfig tunes the server: cache capacity, live scenario
	// count/horizon, the live base seed, and the hardening and tracing
	// knobs.
	ServeConfig = serve.Config
	// ServeStats snapshots the server's instrumentation: request,
	// decode+synthesis and live-emulation counters plus cache counters.
	ServeStats = serve.Stats
	// ServeCacheStats is the field cache's counter snapshot.
	ServeCacheStats = serve.CacheStats
	// ServeArchiveStats is the archive reader's read counts (step
	// decodes, bytes read, chunk-cache hits, misses and amortized
	// decodes): in ServeStats, the reader's totals since it was opened,
	// whichever server read through it.
	ServeArchiveStats = serve.ArchiveStats
	// MetricsRegistry is the dependency-free metrics registry behind the
	// server's /metrics endpoint; Server.Metrics returns the server's.
	MetricsRegistry = obs.Registry
	// QueryBox is a geographic lat/lon box (degrees; longitudes wrap).
	QueryBox = serve.Box
	// FieldResponse, SeriesResponse, StatsResponse and InfoResponse are
	// the JSON bodies of /v1/field, /v1/point + /v1/box, /v1/stats and
	// /v1/info.
	FieldResponse  = serve.FieldResponse
	SeriesResponse = serve.SeriesResponse
	StatsResponse  = serve.StatsResponse
	InfoResponse   = serve.InfoResponse
)

// Mixed-precision Cholesky variants, in the paper's order.
const (
	DP     = tile.VariantDP
	DPSP   = tile.VariantDPSP
	DPSPHP = tile.VariantDPSPHP
	DPHP   = tile.VariantDPHP
)

// DaysPerYear matches the paper's no-leap calendar.
const DaysPerYear = era5.DaysPerYear

// GridForBandLimit returns the smallest grid supporting the exact SHT at
// band limit L.
func GridForBandLimit(L int) Grid { return sphere.GridForBandLimit(L) }

// NewSHT plans a spherical harmonic transform on grid g at band limit L.
func NewSHT(g Grid, L int) (*SHT, error) { return sht.NewPlan(g, L) }

// Train fits an emulator to an ensemble of simulated series sharing the
// annual radiative-forcing record annualRF, whose first `lead` entries
// precede the data window.
func Train(ensemble [][]Field, annualRF []float64, lead int, cfg Config) (*Model, error) {
	return emulator.Train(ensemble, annualRF, lead, cfg)
}

// TrainFrom fits an emulator from a streaming field source without ever
// materializing the campaign: residual analysis consumes one field at a
// time per worker. For a fixed cfg.Workers the fit is bit-deterministic,
// so sources yielding bitwise-equal fields produce byte-identical models
// (up to the timing diagnostic).
func TrainFrom(src FieldSource, annualRF []float64, lead int, cfg Config) (*Model, error) {
	return emulator.TrainFrom(src, annualRF, lead, cfg)
}

// TrainFromArchive re-fits an emulator directly from the members of one
// scenario of a spectral archive — the emulate -> archive -> retrain
// loop: campaigns consumed in spectral form are rehydrated one field at
// a time per worker, never as a raw grid series.
func TrainFromArchive(r *ArchiveReader, scenario int, annualRF []float64, lead int, cfg Config) (*Model, error) {
	src, err := source.FromArchive(r, scenario)
	if err != nil {
		return nil, err
	}
	return emulator.TrainFrom(src, annualRF, lead, cfg)
}

// TrainFromArchiveAll re-fits an emulator from every scenario of a
// spectral archive at once: pathway k of the set names and drives
// archived scenario k, and all Members x Scenarios series train as one
// ensemble with scenario-aware design matrices — the mixed historical +
// projection fit of the CESM2-LENS2 setting.
func TrainFromArchiveAll(r *ArchiveReader, set PathwaySet, lead int, cfg Config) (*Model, error) {
	src, err := source.FromArchiveAll(r, set.Names())
	if err != nil {
		return nil, err
	}
	return emulator.TrainFromSet(src, set, lead, cfg)
}

// SourceFromSlices wraps an in-memory ensemble as a streaming field
// source (all members equal length, one shared grid).
func SourceFromSlices(ens [][]Field) (FieldSource, error) { return source.FromSlices(ens) }

// LoadModel deserializes a model saved with Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return emulator.Load(r) }

// MemberSeed derives the deterministic RNG seed of ensemble member
// `member` under scenario index `scenario` from a campaign base seed.
// Model.EmulateEnsemble uses it internally, so a serial loop over
// Model.Emulate(MemberSeed(base, i, s), ...) reproduces a campaign
// member exactly.
func MemberSeed(base int64, member, scenario int) int64 {
	return emulator.MemberSeed(base, member, scenario)
}

// NewSynthetic builds an ERA5-like synthetic data generator (the
// repository's stand-in for the paper's training archive).
func NewSynthetic(cfg SyntheticConfig) (*Synthetic, error) { return era5.New(cfg) }

// Historical returns the default (historical-then-high) forcing pathway.
func Historical() Scenario { return forcing.Historical() }

// Stabilization returns a mitigation pathway that relaxes toward
// targetPPM after startYear with the given e-folding time.
func Stabilization(startYear, targetPPM, efold float64) Scenario {
	return forcing.Stabilization(startYear, targetPPM, efold)
}

// NewPathwaySet builds a validated pathway set (unique non-empty names,
// non-empty annual series).
func NewPathwaySet(pathways ...Pathway) (PathwaySet, error) { return forcing.NewSet(pathways...) }

// LoadPathwaySet reads a JSON pathway file:
//
//	{"pathways": [{"name": "ssp585", "annual": [2.1, 2.2, ...]}, ...]}
func LoadPathwaySet(path string) (PathwaySet, error) { return forcing.LoadSet(path) }

// DefaultArchivePolicy returns the archive quantization default (0.01%
// relative reconstruction error, planned at half budget).
func DefaultArchivePolicy() ArchivePolicy { return archive.DefaultPolicy() }

// UniformArchiveBands returns a single band storing every degree below L
// at precision p, the fixed-width reference layout.
func UniformArchiveBands(L int, p Precision) []ArchiveBand { return archive.UniformBands(L, p) }

// CreateArchive creates the archive file at path; the returned writer's
// Close finalizes and closes it.
func CreateArchive(path string, h ArchiveHeader) (*ArchiveWriter, error) {
	return archive.Create(path, h)
}

// NewArchiveWriter writes an archive to an arbitrary io.Writer.
func NewArchiveWriter(w io.Writer, h ArchiveHeader) (*ArchiveWriter, error) {
	return archive.NewWriter(w, h)
}

// OpenArchive opens an archive file for random-access replay.
func OpenArchive(path string) (*ArchiveReader, error) { return archive.Open(path) }

// NewArchiveReader opens an archive stored in any io.ReaderAt.
func NewArchiveReader(r io.ReaderAt, size int64) (*ArchiveReader, error) {
	return archive.NewReader(r, size)
}

// NewServer builds a query server over an opened archive. model may be
// nil (archive-only serving); with cfg.LiveScenarios > 0 it serves
// scenario indices beyond the archive's by emulating on demand,
// byte-identical to Model.Emulate under MemberSeed(cfg.BaseSeed, ...).
func NewServer(r *ArchiveReader, model *Model, cfg ServeConfig) (*Server, error) {
	return serve.New(r, model, cfg)
}

// MeasuredStorageReport compares the measured byte size of an archive
// against the raw grid series it replaces (rawBytesPerValue is 4 for the
// float32 grids climate archives typically store).
func MeasuredStorageReport(g Grid, fields int64, rawBytesPerValue int, archiveBytes int64) StorageReport {
	return storagemodel.MeasuredReport(g, fields, rawBytesPerValue, archiveBytes)
}

// FieldReconError compares a reconstructed field against its reference.
func FieldReconError(ref, recon Field) ReconError { return stats.FieldReconError(ref, recon) }

// SeriesReconError pools reconstruction error over a whole series.
func SeriesReconError(ref, recon []Field) ReconError { return stats.SeriesReconError(ref, recon) }

// MeanPowerSpectrum averages the angular power spectrum of a field
// series — the input ArchivePolicy.PlanBands consumes.
func MeanPowerSpectrum(plan *SHT, fields []Field) []float64 {
	return stats.MeanPowerSpectrum(plan, fields)
}
