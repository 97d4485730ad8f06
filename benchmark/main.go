// Command benchmark is the repository's benchmark: six named workloads
// over real HTTP and the batch pipeline, end-to-end metrics with
// regression bounds, and a traced run that attributes them to the
// serve / archive / sht / emulator layers. See README.md.
//
//	bash benchmark/run.sh                        every workload, one table
//	bash benchmark/run.sh -workload field-cold   one row
//	bash benchmark/run.sh -workload series -trace 1
//	bash benchmark/run.sh -repeat 6              A/A: the whole set six times, medians of alternate sets
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	var opt options
	name := flag.String("workload", "", "workload to run (default: all of them, each in its own process)")
	flag.Int64Var(&opt.Seed, "seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and compare the odd-numbered sets' medians with the even-numbered sets' (A/A)")
	flag.StringVar(&opt.OutDir, "out", filepath.Join("benchmark", "out"), "directory for result and trace files")
	flag.Parse()
	opt.Trace = *trace != 0
	opt.Window = time.Duration(*seconds) * time.Second
	opt.Warmup, opt.SetupRepeats = warmupTime, setupRepeats
	if err := run(*name, opt, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, opt options, repeat int) error {
	if opt.Window < time.Second {
		return fmt.Errorf("-seconds: need at least 1")
	}
	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		return fmt.Errorf("create output directory: %w", err)
	}
	if name == "" {
		return runAll(opt, repeat)
	}
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	res, err := runWorkload(w, opt)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := writeJSON(filepath.Join(opt.OutDir, name+".result.json"), report{Env: stampEnv(), Rows: []*result{res}}); err != nil {
		return err
	}
	printTable(os.Stdout, []*result{res})
	line, err := contractLine(res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

func runWorkload(w *workload, opt options) (*result, error) {
	var res *result
	var err error
	switch {
	case len(w.Mix) == 0:
		res, err = runPipeline(w, opt)
	case opt.Trace:
		res, err = runServingTraced(w, opt)
	default:
		res, err = runServing(w, opt)
	}
	if err != nil {
		return nil, err
	}
	return res, complete(res)
}

// declared returns the metrics the contract wants from a run: the
// end-to-end set with tracing off, the per-layer set with it on.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer()
	}
	return endToEnd
}

// complete makes the result rectangular, as the contract wants it: every
// declared metric of the mode is present (a per-layer metric of a layer
// the row never enters is 0), and nothing undeclared is.
func complete(res *result) error {
	known := map[string]bool{}
	for _, d := range declared(res.Trace) {
		known[d.Name] = true
		if _, ok := res.Metrics[d.Name]; !ok {
			if !res.Trace {
				return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			res.Metrics[d.Name] = 0
		}
	}
	for k := range res.Metrics {
		if !known[k] {
			return fmt.Errorf("metric %s is not declared in spec.go", k)
		}
	}
	return nil
}

// contractLine renders the one JSON object the driver reads from the
// last line of standard output.
func contractLine(res *result) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range declared(res.Trace) {
		metrics[d.Name] = mv{res.Metrics[d.Name], d.Unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	return string(buf), nil
}

// runAll runs every workload in a process of its own, so heap, RSS and
// GC state do not leak from one row into the next, `repeat` times over.
func runAll(opt options, repeat int) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	var sets [][]*result
	for k := 0; k < repeat; k++ {
		var set []*result
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "run %d/%d: %s\n", k+1, repeat, w.Name)
			res, err := runChild(exe, w.Name, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			set = append(set, res)
		}
		printTable(os.Stdout, set)
		sets = append(sets, set)
	}
	rep := report{Env: stampEnv(), Rows: sets[len(sets)-1]}
	if err := writeJSON(filepath.Join(opt.OutDir, "result.json"), rep); err != nil {
		return err
	}
	for _, set := range sets {
		for _, r := range set {
			if !r.correct() {
				return fmt.Errorf("%s: %d of %d operations failed: %s", r.Workload, r.Failed, r.Attempted, r.describe())
			}
		}
	}
	if repeat >= 2 && !opt.Trace {
		return compareSets(os.Stdout, sets)
	}
	return nil
}

// runChild runs one workload in a child process and reads its result
// file back.
func runChild(exe, name string, opt options) (*result, error) {
	trace := 0
	if opt.Trace {
		trace = 1
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(opt.Seed, 10),
		"-seconds", strconv.Itoa(int(opt.Window/time.Second)), "-trace", strconv.Itoa(trace), "-out", opt.OutDir)
	cmd.Stderr = os.Stderr // its table and contract line are dropped; the result file has everything
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	buf, err := os.ReadFile(filepath.Join(opt.OutDir, name+".result.json"))
	if err != nil {
		return nil, fmt.Errorf("read child result: %w", err)
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("decode child result: %w", err)
	}
	if len(rep.Rows) != 1 {
		return nil, errors.New("child result holds no row")
	}
	return rep.Rows[0], nil
}
