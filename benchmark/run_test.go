package main

import (
	"math"
	"testing"
	"time"
)

// testOptions are short windows for in-test runs.
func testOptions(t *testing.T, window time.Duration, trace bool) options {
	return options{Seed: 1, Window: window, Trace: trace, OutDir: t.TempDir(), Warmup: window, SetupRepeats: 1}
}

// TestSmoke runs every row for 0.3 s through the same code path as the
// command line and checks the result is correct and rectangular. The
// batch pipeline needs two passes of a few seconds each, so -short
// leaves it out.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if len(w.Mix) == 0 && testing.Short() {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(w, testOptions(t, 300*time.Millisecond, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.Attempted < 1 {
				t.Fatalf("attempted %d, failed %d: %s", res.Attempted, res.Failed, res.describe())
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}
			if _, err := contractLine(res); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAttributionAddsUp is the "parts add up to the whole" check on a
// one-second traced field-cold run: the stage self times and the
// unattributed remainder are the handler time, nothing is negative, the
// request log agrees with the /metrics histogram (a disagreement is a
// problem of the result), and the mechanism counters say what the row
// is supposed to do.
func TestAttributionAddsUp(t *testing.T) {
	res, err := runWorkload(findWorkload("field-cold"), testOptions(t, time.Second, true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("attempted %d, failed %d: %s", res.Attempted, res.Failed, res.describe())
	}
	m := res.Metrics
	sum := m["serve.unattributed_s"]
	for _, st := range stageNames {
		if v := m["serve.stage."+st+"_s"]; v < 0 {
			t.Errorf("stage %s has negative self time %g", st, v)
		} else {
			sum += v
		}
	}
	if h := m["serve.handler_s"]; !(h > 0) || math.Abs(sum-h) > 1e-9*h {
		t.Errorf("stages + unattributed = %.9f, handler = %.9f", sum, h)
	}
	if m["serve.unattributed_s"] < 0 || m["http.transport_s"] < 0 {
		t.Errorf("unattributed %g s, transport %g s: neither may be negative", m["serve.unattributed_s"], m["http.transport_s"])
	}
	n := float64(res.Attempted)
	if loads := m["serve.field_loads"]; loads < 0.9*n || loads > n {
		t.Errorf("field-cold ran %g loads for %g requests; nearly every request should miss", loads, n)
	}
	if m["serve.stage.eval_s"] != 0 || m["serve.live_loads"] != 0 {
		t.Errorf("field-cold spent %g s in eval and ran %g live loads; it should enter neither", m["serve.stage.eval_s"], m["serve.live_loads"])
	}
	if m["archive.io.read_calls"] <= 0 || m["serve.stage.synthesis_s"] <= 0 || m["sht.synth_f32_us"] <= 0 {
		t.Errorf("archive reads %g, synthesis %g s, synth probe %g us: all should be positive", m["archive.io.read_calls"], m["serve.stage.synthesis_s"], m["sht.synth_f32_us"])
	}
}
