package main

import "time"

// The declarations in this file are the benchmark's contract: workload
// names, metric names, units, directions and regression bounds. The
// root BENCHMARK.json repeats them for the driver; spec_test.go fails
// when the two drift apart.

// metricDef declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics every workload reports with tracing off.
// The driver's contract wants one rectangular table (every workload
// reports every end-to-end metric, none of them ever zero), so the
// columns are the ones that mean something on all six rows; README.md
// says what each means on batch-pipeline, and rowMetrics below holds
// the metrics only some rows produce.
//
// The timing bounds are the contract's ceiling, not a judgement of what
// matters: the driver refuses a bound tighter than the run-to-run spread
// (quartile distance over median, ten seeds), which on this two-vCPU
// box is 7-11% for the HTTP rows however the window is cut — the same
// binary on the same seed moves that much — against 2% for the compute
// rows, and a metric has one bound for all rows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p99_ms", "ms", "lower", 0.25},
	{"stored_bytes_per_raw_byte", "ratio", "lower", 0.01},
	{"recon_rel_err", "ratio", "lower", 0.25},
}

// rowMetrics are end-to-end metrics of the batch pipeline that the
// serving rows cannot produce (train_s also exists on live-whatif,
// whose set-up trains a model). They are printed and compared by
// -repeat on every untraced run, and listed under per_layer in
// BENCHMARK.json (0 where a row does not produce them) because the
// driver's end-to-end table has to be rectangular.
var rowMetrics = []metricDef{
	{"pipeline_s", "s", "lower", 0.10},
	{"train_s", "s", "lower", 0.10},
	{"emulate_fields_per_s", "1/s", "higher", 0.10},
	{"archive_write_fields_per_s", "1/s", "higher", 0.10},
	{"replay_fields_per_s", "1/s", "higher", 0.15}, // a 0.35 s stage: the shortest, so the noisiest
}

// perLayer lists the metrics of the traced run, prefixed by module.
func perLayer() []metricDef {
	defs := append([]metricDef(nil), rowMetrics...)
	for i := range defs {
		defs[i].Bound = 0
	}
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, c := range classNames {
		add("http."+c+".p50_ms", "ms", "lower")
		add("http."+c+".p99_ms", "ms", "lower")
	}
	add("http.lat_p999_ms", "ms", "lower")
	add("http.transport_s", "s", "lower")
	add("http.late_share", "ratio", "lower")

	add("serve.handler_s", "s", "lower")
	for _, st := range stageNames {
		add("serve.stage."+st+"_s", "s", "lower")
		add("serve.stage."+st+"_count", "count", "lower")
	}
	add("serve.unattributed_s", "s", "lower")
	add("serve.unattributed_share", "ratio", "lower")
	add("serve.cache_f64.hit_ratio", "ratio", "higher")
	add("serve.cache_f32.hit_ratio", "ratio", "higher")
	add("serve.cache.evictions", "count", "lower")
	add("serve.cache.coalesced", "count", "higher")
	add("serve.cache.resident_bytes", "bytes", "lower")
	add("serve.evalcache.hit_ratio", "ratio", "higher")
	add("serve.field_loads", "count", "lower")
	add("serve.live_loads", "count", "lower")
	add("serve.live_loads_per_req", "ratio", "lower")
	add("serve.bytes_out_per_req", "bytes", "lower")
	add("serve.gzip_ratio", "ratio", "lower")

	add("archive.io.read_calls", "count", "lower")
	add("archive.io.read_bytes", "bytes", "lower")
	add("archive.io.read_s", "s", "lower")
	add("archive.step_decodes", "count", "lower")
	add("archive.chunk_hit_ratio", "ratio", "higher")
	add("archive.chunk_amortized", "count", "higher")
	add("archive.read_bytes_per_req", "bytes", "lower")
	add("archive.decode_f64_us", "us", "lower")
	add("archive.decode_f32_us", "us", "lower")
	add("archive.decode_range_us_per_step", "us", "lower")
	add("archive.add_packed_us", "us", "lower")
	add("archive.add_field_us", "us", "lower")
	add("archive.close_s", "s", "lower")
	add("archive.bytes_per_field", "bytes", "lower")
	add("archive.max_rel_err", "ratio", "lower")

	add("sht.synth_f64_us", "us", "lower")
	add("sht.synth_f32_us", "us", "lower")
	add("sht.analyze_us", "us", "lower")
	add("sht.point_eval_us_per_step", "us", "lower")
	add("sht.batch16_eval_us_per_step", "us", "lower")
	add("sht.ring_eval_us_per_step", "us", "lower")
	add("sht.plan_build_s", "s", "lower")
	add("fft.rfft_inverse_us", "us", "lower")

	add("emulator.model_bytes", "bytes", "lower")
	add("trend.fit_s", "s", "lower")
	add("mpchol.factor_s", "s", "lower")
	add("mpchol.conversions", "count", "lower")
	add("mpchol.moved_bytes", "bytes", "lower")
	add("mpchol.gflops_computed", "gflop/s", "higher")
	add("varm.step_us", "us", "lower")
	add("era5.generate_s", "s", "lower")

	add("runtime.cpu_ms_per_op", "ms", "lower")
	add("runtime.alloc_bytes_per_op", "bytes", "lower")
	add("runtime.mallocs_per_op", "count", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_pause_total_ms", "ms", "lower")
	add("runtime.peak_rss_mb", "MB", "lower")

	add("obs.trace_overhead_share", "ratio", "lower")
	return defs
}

// stageNames are the `stage` label values of the server's
// exaclim_stage_duration_seconds histogram.
var stageNames = []string{"cache", "cache_wait", "decode", "synthesis", "eval", "emulate", "encode"}

// class names one kind of HTTP request; per-class latencies are reported
// as http.<class>.p50_ms / .p99_ms.
type class uint8

const (
	classFieldF32 class = iota
	classFieldJSON
	classFieldGzip
	classPoint
	classPoints
	classBox
	classStats
	classLiveField
	classLivePoint
	numClasses
)

var classNames = [numClasses]string{
	"field_f32", "field_json", "field_gzip", "point", "points", "box", "stats", "live_field", "live_point",
}

func (c class) String() string { return classNames[c] }

// keyDist says how a workload draws the (member, scenario, t) of a
// field request.
type keyDist int

const (
	keysUniform keyDist = iota // every archived field equally likely
	keysZipfHot                // Zipf over a seed-chosen hot set
	keysLive                   // a fixed cycle over the live series (see liveCycle)
)

// mixEntry is one request class and its share of the traffic.
type mixEntry struct {
	Class class
	Share float64
}

// workload declares one row of the benchmark.
type workload struct {
	Name string
	// Why is the one-sentence reason the row exists; BENCHMARK.json and
	// README.md repeat it.
	Why string
	// Mix lists the request classes from cheapest to costliest on this
	// box. The order matters: the shares are chosen so the median and
	// the 99th percentile of the whole mix each fall inside one class,
	// not on a boundary a 1% shift in the mix would move them across
	// (gen_test.go asserts it). Empty for batch-pipeline.
	Mix  []mixEntry
	Keys keyDist
	// OpenRate, when positive, makes the row an open loop: Poisson
	// arrivals at this many requests per second over the two
	// connections, latency timed from each request's due time.
	OpenRate float64
	// CacheBytes is the server's field-cache size; 0 keeps the default
	// (256 MiB). Set only where working set against cache is the point.
	CacheBytes int64
	// Live rows train a model in set-up and serve what-if scenarios.
	Live bool
}

const (
	clients      = 2 // client goroutines, one keep-alive connection each
	hotSetSize   = 256
	zipfS        = 1.1
	seriesSteps  = 64   // step range of point/points/box requests
	pointsPerReq = 16   // locations per /v1/points request
	locationPool = 2048 // twice the evaluator cache, so it sees hits and misses
	boxPool      = 64
	sampleOneIn  = 64 // responses kept for the oracle
	// keptBytesCap bounds the response bodies one client keeps for the
	// oracle, so the kept set cannot grow the heap the measurement runs in.
	keptBytesCap = 8 << 20

	defaultSeconds = 15
	warmupTime     = 2 * time.Second
	setupRepeats   = 3
	lateAfter      = time.Millisecond // open loop: sent this long after due counts as late
)

// Field archive of the four archive-backed serving rows.
const (
	fieldL         = 64
	fieldMembers   = 8
	fieldScenarios = 2
	fieldSteps     = 512
)

// live-whatif: model, archive and live horizon.
const (
	liveL          = 16
	liveMembers    = 8
	liveArchSteps  = 32
	liveSteps      = 256
	livePathways   = 8
	liveCacheBytes = 16 << 20
)

// batch-pipeline campaign.
const (
	pipeL         = 32
	pipeP         = 2
	pipeTrainMem  = 2
	pipeTrainYrs  = 2
	pipeMembers   = 8
	pipeScenarios = 2
	pipeSteps     = 128
	pipeReplays   = 4
)

var workloads = []workload{
	{
		Name: "field-cold",
		Why:  "uniform /v1/field over 8192 fields with a 4 MiB cache: chunk read, band decode and full synthesis on every request, f32 and JSON twins both in the mix",
		Mix:  []mixEntry{{classFieldF32, 0.80}, {classFieldJSON, 0.20}},
		Keys: keysUniform, CacheBytes: 4 << 20,
	},
	{
		Name: "field-hot",
		Why:  "Zipf over a 256-field resident hot set: archive and sht idle, time is cache lookup, JSON/gzip encode and net/http, so a synthesis speed-up must not move it",
		Mix:  []mixEntry{{classFieldF32, 0.40}, {classFieldJSON, 0.50}, {classFieldGzip, 0.10}},
		Keys: keysZipfHot,
	},
	{
		Name: "hot-open",
		Why:  "field-hot's requests as an open loop, Poisson 800 req/s timed from due time: GC pauses, lock waits and queueing show in the tail",
		Mix:  []mixEntry{{classFieldF32, 0.40}, {classFieldJSON, 0.50}, {classFieldGzip, 0.10}},
		Keys: keysZipfHot, OpenRate: 800,
	},
	{
		Name: "series",
		Why:  "point, multi-point, box and stats queries: chunk-granular range decode and point evaluators instead of single-step decode and grid synthesis",
		Mix:  []mixEntry{{classPoint, 0.40}, {classBox, 0.25}, {classPoints, 0.25}, {classStats, 0.10}},
		// The stats class is the only one that fills the field cache. At
		// the default size it would still be filling when the window ends
		// (545 MB of fields, 128 MiB of float64 cache); at 32 MiB it is in
		// its steady state before the warm-up is over.
		Keys: keysUniform, CacheBytes: 32 << 20,
	},
	{
		Name: "live-whatif",
		Why:  "what-if scenarios emulated on demand from a model trained in set-up, cache smaller than the live working set: the only serving row where emulator and varm do the work",
		Mix:  []mixEntry{{classLiveField, 0.30}, {classLivePoint, 0.70}},
		Keys: keysLive, CacheBytes: liveCacheBytes, Live: true,
	},
	{
		Name: "batch-pipeline",
		Why:  "train, emulate, plan bands, archive and replay an L=32 campaign in process: the write side of the same layers, plus the storage ratio and reconstruction error",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
