package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The CLI's end-to-end test: build the real binary once, then run the
// documented workflow in a temp dir — train/save, ensemble, archive,
// info, replay, retrain, and serve over HTTP — asserting each
// subcommand exits 0 and prints its headline lines. Serve runs as a
// real process on an ephemeral port (startServe in serve_cli_test.go),
// one process per configuration. Sizes are kept tiny
// (gridL=8, L=6, one training year) so the whole pipeline stays in the
// seconds range.

var cliBin struct {
	once sync.Once
	dir  string
	path string
	err  error
}

// TestMain removes the binary buildCLI leaves in its temp dir.
func TestMain(m *testing.M) {
	code := m.Run()
	if cliBin.dir != "" {
		os.RemoveAll(cliBin.dir)
	}
	os.Exit(code)
}

// buildCLI compiles the exaclim binary into a shared temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	cliBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "exaclim-cli")
		if err != nil {
			cliBin.err = err
			return
		}
		cliBin.dir = dir
		bin := filepath.Join(dir, "exaclim")
		cmd := exec.Command("go", "build", "-o", bin, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			cliBin.err = err
			t.Logf("go build: %s", out)
			return
		}
		cliBin.path = bin
	})
	if cliBin.err != nil {
		t.Fatalf("building CLI: %v", cliBin.err)
	}
	return cliBin.path
}

// run executes the binary and returns combined output, failing the test
// on a nonzero exit.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("exaclim %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// expect asserts every substring appears in the output.
func expect(t *testing.T, label, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Fatalf("%s output missing %q:\n%s", label, w, out)
		}
	}
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full CLI pipeline")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	arch := filepath.Join(dir, "campaign.exa")

	// Pipeline: train on synthetic data, save the model.
	out := run(t, bin, "-gridL", "8", "-L", "6", "-years", "1", "-P", "1",
		"-emulate", "0", "-save", model)
	expect(t, "pipeline", out, "training emulator", "saved model to "+model)

	// Ensemble: a tiny scenario-parallel campaign from the saved model.
	out = run(t, bin, "ensemble", "-load", model, "-members", "2", "-steps", "8", "-workers", "2")
	expect(t, "ensemble", out, "loaded model", "ensemble mean", "generated 16 fields")

	// Archive: emulate straight into the spectral store.
	out = run(t, bin, "archive", "-load", model, "-members", "2", "-steps", "12", "-out", arch)
	expect(t, "archive", out, "archived 24 fields", "measured vs float32 raw grids")

	// Info: read-only header report, positional-argument form.
	out = run(t, bin, "info", arch)
	expect(t, "info", out, "band limit  L=6", "2 members x 1 scenarios x 12 steps",
		"step record", "measured vs float32 raw grids")

	// Replay: reconstruct fields and statistics from the archive alone.
	out = run(t, bin, "replay", "-archive", arch, "-workers", "2", "-t", "3")
	expect(t, "replay", out, "replayed 24 fields", "step 3")

	// Retrain: refit an emulator from the archived campaign.
	out = run(t, bin, "retrain", "-archive", arch, "-L", "6", "-P", "1", "-emulate", "5")
	expect(t, "retrain", out, "retrained: covariance 36x36", "emulated 5 steps")

	// Serve the archive with request logging and full tracing, then the
	// same archive plus one live scenario emulated from the model.
	checkServe(t, bin, arch)
	base, stop := startServe(t, bin, "-archive", arch, "-load", model, "-live", "1")
	_, body := mustFetch(t, base+"/v1/field?member=0&scenario=1&t=2")
	checkField(t, body, 0, 1, 2)
	stopServe(t, base, stop, "1 live")
}

// TestCLIMultiScenario drives the scenario-aware forcing workflow end
// to end: archive a two-scenario campaign with its forcing sidecar,
// retrain one model across both scenarios from the pathway file, and
// serve a what-if live scenario under a pathway absent from the
// archive.
func TestCLIMultiScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full CLI pipeline")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	arch := filepath.Join(dir, "campaign.exa")
	rfFile := filepath.Join(dir, "rf.json")
	refit := filepath.Join(dir, "refit.gob")

	// Train once, then archive a two-scenario campaign (training forcing
	// + a stabilization pathway) writing the forcing sidecar.
	run(t, bin, "-gridL", "8", "-L", "6", "-years", "1", "-P", "1", "-emulate", "0", "-save", model)
	out := run(t, bin, "archive", "-load", model, "-members", "2", "-steps", "12",
		"-stabilize", "2030:450:40", "-out", arch, "-rf-out", rfFile)
	expect(t, "archive", out, "archived 48 fields", "wrote 2 forcing pathways",
		"training-forcing", "stabilization")

	// Retrain across every archived scenario using the sidecar.
	out = run(t, bin, "retrain", "-archive", arch, "-scenarios", "all", "-rf-file", rfFile,
		"-L", "6", "-P", "1", "-save", refit, "-emulate", "5")
	expect(t, "retrain all", out, "all 2 scenarios", "[training-forcing stabilization]",
		"retrained: covariance 36x36", "emulated 5 steps")

	// Reconstructing the pathways from flags (no sidecar) works too.
	out = run(t, bin, "retrain", "-archive", arch, "-scenarios", "all",
		"-stabilize", "2030:450:40", "-L", "6", "-P", "1")
	expect(t, "retrain reconstructed", out, "all 2 scenarios", "retrained: covariance 36x36")

	// Serve what-if scenarios: the sidecar's pathways become live
	// scenarios 2 and 3 (after the archive's 0 and 1), emulated under
	// per-scenario forcing, with hardening flags in force.
	base, stop := startServe(t, bin, "-archive", arch, "-load", refit, "-live-rf", rfFile,
		"-max-inflight", "8", "-timeout", "30s")
	_, body := mustFetch(t, base+"/v1/field?member=0&scenario=3&t=2")
	checkField(t, body, 0, 3, 2)
	var info struct {
		LivePathways []string `json:"live_pathways"`
	}
	getJSON(t, base+"/v1/info", &info)
	if got := strings.Join(info.LivePathways, ","); got != "training-forcing,stabilization" {
		t.Fatalf("/v1/info live_pathways %q, want training-forcing,stabilization", got)
	}
	stopServe(t, base, stop, "loaded 2 what-if pathways", "2 live")
}

// TestCLIErrors pins the failure surface: bad inputs exit nonzero with
// a diagnostic on stderr instead of succeeding vacuously.
func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	arch := filepath.Join(dir, "tiny.exa")
	run(t, bin, "archive", "-gridL", "8", "-L", "6", "-years", "1", "-P", "1",
		"-members", "1", "-steps", "2", "-out", arch)
	// An address this test already listens on: serve must fail to bind
	// rather than run.
	held := listenLoopback(t)
	defer held.Close()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"info", filepath.Join(dir, "missing.exa")}, "exaclim:"},
		{[]string{"serve", "-archive", filepath.Join(dir, "missing.exa")}, "exaclim:"},
		{[]string{"serve", "-archive", arch, "-addr", held.Addr().String()}, "exaclim: listen tcp"},
		{[]string{"ensemble", "-members", "0"}, "exaclim:"},
	} {
		// A serve that wrongly starts is killed instead of hanging the test.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, bin, c.args...).CombinedOutput()
		cancel()
		if err == nil {
			t.Errorf("exaclim %s succeeded, want failure:\n%s", strings.Join(c.args, " "), out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("exaclim %s: output lacks %q:\n%s", strings.Join(c.args, " "), c.want, out)
		}
	}
}
