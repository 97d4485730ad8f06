package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"exaclim/internal/sht"
)

// env stamps a result with what it was measured on — the fields
// cmd/benchjson stamps, plus the commit.
type env struct {
	Commit        string `json:"commit"`
	NProc         int    `json:"nproc"`
	GoMaxProcs    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	CPU           string `json:"cpu"`
	KernelVersion int    `json:"kernel_version"`
}

// commit is set by run.sh at link time.
var commit = "unknown"

func stampEnv() env {
	return env{Commit: commit, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: cpuModel(), KernelVersion: sht.SynthKernelVersion}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report is the layout of the result files in the output directory.
type report struct {
	Env  env       `json:"env"`
	Rows []*result `json:"rows"`
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// units maps every declared metric to its unit.
func units() map[string]string {
	u := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, rowMetrics, perLayer()} {
		for _, d := range defs {
			u[d.Name] = d.Unit
		}
	}
	return u
}

// printTable renders the rows for a human: one column per workload, one
// line per metric, contract metrics first, then row metrics and
// diagnostics.
func printTable(w io.Writer, rows []*result) {
	u := units()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t", r.Workload)
	}
	fmt.Fprintln(tw)
	line := func(name string, get func(*result) (float64, bool)) {
		fmt.Fprintf(tw, "%s\t%s\t", name, u[name])
		for _, r := range rows {
			if v, ok := get(r); ok {
				fmt.Fprintf(tw, "%s\t", fmtValue(v))
			} else {
				fmt.Fprint(tw, "-\t")
			}
		}
		fmt.Fprintln(tw)
	}
	for _, d := range declared(rows[0].Trace) {
		name := d.Name
		line(name, func(r *result) (float64, bool) { v, ok := r.Metrics[name]; return v, ok })
	}
	extras := map[string]bool{}
	for _, r := range rows {
		for k := range r.Extra {
			extras[k] = true
		}
	}
	names := make([]string, 0, len(extras))
	for k := range extras {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		line(name, func(r *result) (float64, bool) { v, ok := r.Extra[name]; return v, ok })
	}
	line("attempted", func(r *result) (float64, bool) { return float64(r.Attempted), true })
	line("failed", func(r *result) (float64, bool) { return float64(r.Failed), true })
	line("fail_share", func(r *result) (float64, bool) { return ratio(float64(r.Failed), float64(r.Attempted)), true })
	tw.Flush()
	for _, r := range rows {
		if rows[0].Trace {
			if share, ok := r.Metrics["serve.unattributed_share"]; ok && r.Metrics["serve.handler_s"] > 0 {
				fmt.Fprintf(w, "%s: %.1f%% of handler time is outside every stage; tracing costs %.1f%% of throughput (the bar PR 9 set is < 5%%)\n",
					r.Workload, 100*share, 100*r.Metrics["obs.trace_overhead_share"])
			}
		}
		if len(r.Problems) > 0 {
			fmt.Fprintf(w, "%s: NOT CORRECT: %s\n", r.Workload, r.describe())
		}
	}
}

func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case v == 0:
		return "0"
	case a >= 1000 || a < 0.001:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// compareSets is the A/A check: runs of the whole set on one commit have
// to agree within each end-to-end metric's own bound, or that bound
// cannot separate a regression from noise. The sets alternate between
// two sides (first, third, ... against second, fourth, ...), so a slow
// drift of the host lands on both, and each side's value is its median.
func compareSets(w io.Writer, sets [][]*result) error {
	side := func(k, row int, get func(*result) (float64, bool)) (float64, bool) {
		var vals []float64
		for i := k; i < len(sets); i += 2 {
			v, ok := get(sets[i][row])
			if !ok {
				return 0, false
			}
			vals = append(vals, v)
		}
		return median(vals), true
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tworse by\tbound\t")
	bad := 0
	check := func(name string, d metricDef, x, y float64) {
		// How much worse the second run is than the first, as a share of
		// the first, and the other way round: A/A has no "before".
		worse := math.Abs(y-x) / math.Min(math.Abs(x), math.Abs(y))
		verdict := ""
		if !(worse <= d.Bound) {
			verdict = "DISAGREE"
			bad++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f%%\t%.0f%%\t%s\n", name, d.Name, fmtValue(x), fmtValue(y), 100*worse, 100*d.Bound, verdict)
	}
	for row, r := range sets[0] {
		for _, d := range endToEnd {
			get := func(r *result) (float64, bool) { v, ok := r.Metrics[d.Name]; return v, ok }
			x, _ := side(0, row, get)
			y, _ := side(1, row, get)
			check(r.Workload, d, x, y)
		}
		for _, d := range rowMetrics {
			get := func(r *result) (float64, bool) { v, ok := r.Extra[d.Name]; return v, ok }
			if x, ok := side(0, row, get); ok {
				y, _ := side(1, row, get)
				check(r.Workload, d, x, y)
			}
		}
	}
	tw.Flush()
	if bad > 0 {
		return fmt.Errorf("%d metric(s) differ between runs of the same commit by more than their bound; single runs on a noisy host do (README.md, A/A): repeat with more sets before reading anything into it", bad)
	}
	return nil
}
