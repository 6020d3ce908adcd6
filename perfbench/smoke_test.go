package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyWorkloads are the three workloads at sizes that run in seconds, with
// the same kinds of matrices and the same regime bounds.
func tinyWorkloads() []workload {
	mix := &serveMix{
		full:    []sized{{32, 2}, {64, 1}},
		values:  []sized{{1024, 1}},
		perSize: 2,
		rate:    200,
	}
	return []workload{
		{name: "lowdefl-n2000", specs: []genSpec{{4, 300, 1}, {6, 300, 1}}, lo: 0, hi: 0.06},
		{name: "fulldefl-n4000", specs: []genSpec{{2, 400, 1}}, lo: 0.95, hi: 1},
		{name: "serve-mix", specs: gaussianSpecs(mix), lo: 0.5, hi: 0.8, mix: mix},
	}
}

func tinyConfig(t *testing.T, w workload, trace bool) runConfig {
	return runConfig{w: w, seed: 7, duration: 600 * time.Millisecond, trace: trace,
		root: "..", out: t.TempDir()}
}

// TestSmokeAllWorkloads runs every workload untraced and traced at tiny
// sizes and checks that each prints every metric with zero failed ops.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run")
	}
	for _, w := range tinyWorkloads() {
		for _, trace := range []bool{false, true} {
			rec, err := execute(tinyConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res := rec.Result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, rec.Errors)
			}
			want := w.endToEnd()
			if trace {
				want = perLayer()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, nm := range want {
				m, ok := res.Metrics[nm.name]
				if !ok || m.Unit != nm.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, nm.name, m, nm.unit)
				}
			}
			if !trace {
				for _, nm := range w.endToEnd() {
					if res.Metrics[nm.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, nm.name, res.Metrics[nm.name].Value)
					}
				}
				for _, nm := range w.ungated() {
					if m := rec.Ungated[nm.name]; m.Value <= 0 || m.Unit != nm.unit {
						t.Errorf("%s: ungated metric %s = %+v in the record", w.name, nm.name, m)
					}
				}
			} else {
				if res.Metrics["abft.detections"].Value != 0 {
					t.Errorf("%s: abft.detections = %v", w.name, res.Metrics["abft.detections"].Value)
				}
				if _, err := os.Stat(rec.Spans); err != nil {
					t.Errorf("%s: spans not written: %v", w.name, err)
				}
			}
			if rec.Host.NProc == 0 || rec.Host.GoVersion == "" {
				t.Errorf("%s: host fingerprint %+v", w.name, rec.Host)
			}
		}
	}
}

// A wrong answer is a failed op and makes the run incorrect.
func TestWrongAnswerFails(t *testing.T) {
	cfg := tinyConfig(t, tinyWorkloads()[1], false)
	gen, err := newGenerator(cfg.root, "")
	if err != nil {
		t.Fatal(err)
	}
	ins, _, err := gen.generate(cfg.seed, cfg.w.specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{cfg: cfg, inputs: ins, chk: newChecker(), layer: map[string]float64{}}
	ins[0].ref[ins[0].n()/2] += 1e-6
	if err := runSolve(r); err == nil {
		t.Fatal("warm-up accepted a wrong answer")
	}
	ins[0].ref[ins[0].n()/2] -= 1e-6
	if err := runSolve(r); err != nil {
		t.Fatal(err)
	}
	ins[0].ref[0] -= 1e-6
	if s, err := r.solveOnce(ins[0], nil, 0); s.ok || err == nil {
		t.Fatal("op with a wrong eigenvalue counted as ok")
	}
}

func TestResidualCheck(t *testing.T) {
	gen, err := newGenerator("..", "")
	if err != nil {
		t.Fatal(err)
	}
	ins, _, err := gen.generate(3, []genSpec{{gaussian, 60, 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := ins[0]
	r := &run{chk: newChecker(), cfg: runConfig{w: workload{}}}
	if s, err := r.solveOnce(in, nil, 0); !s.ok {
		t.Fatal(err)
	}
	// Eigenvalues right, one eigenvector wrong.
	vals := append([]float64(nil), in.ref...)
	vecs := make([]float64, 60*60)
	for i := 0; i < 60; i++ {
		vecs[i*60+i] = 1
	}
	if err := r.chk.check(in, vals, vecs); err == nil {
		t.Fatal("identity eigenvectors passed the residual check")
	}
	if err := checkOrthogonality(in, vals, append(vecs[:0:0], make([]float64, 3600)...)); err == nil {
		t.Fatal("zero eigenvectors passed the orthogonality check")
	}
}

// The regime guard aborts a workload whose deflation is outside its range.
func TestRegimeGuard(t *testing.T) {
	gen, err := newGenerator("..", "")
	if err != nil {
		t.Fatal(err)
	}
	ins, _, err := gen.generate(1, []genSpec{{2, 200, 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regime(ins, 0, 0.06); err == nil || !strings.Contains(err.Error(), "regime guard") {
		t.Fatalf("type 2 passed the low-deflation guard: %v", err)
	}
	fr, err := regime(ins, 0.95, 1)
	if err != nil || fr["type2"] < 0.95 {
		t.Fatalf("type 2 failed the full-deflation guard: %v %v", fr, err)
	}
}

func TestInputsSeededAndCached(t *testing.T) {
	dir := t.TempDir()
	gen, err := newGenerator("..", dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := gen.matrix(5, 4, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.bin"))
	if len(files) != 1 || !strings.Contains(files[0], gen.srcHash) {
		t.Fatalf("cache files %v, want one keyed by the testmat digest %s", files, gen.srcHash)
	}
	b, err := gen.matrix(5, 4, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := (&generator{srcHash: gen.srcHash}).matrix(5, 4, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.D {
		if a.D[i] != b.D[i] || a.D[i] != fresh.D[i] {
			t.Fatal("same seed gave different inputs")
		}
	}
	c, _ := gen.matrix(6, 4, 100, 0)
	if c.D[0] == a.D[0] && c.E[0] == a.E[0] {
		t.Fatal("different seeds gave the same input")
	}
}

// The metric names and units in the code match BENCHMARK.json.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&spec); err != nil {
		t.Fatal(err)
	}
	match := func(kind string, got []struct{ Name, Unit string }, want []named) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	match("per_layer", spec.PerLayer, perLayer())
	known := map[string]workload{}
	for _, w := range defaultWorkloads() {
		known[w.name] = w
	}
	for _, sw := range spec.Workloads {
		w, ok := known[sw.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the code", sw.Name)
			continue
		}
		// Every gated workload prints exactly the listed end-to-end metrics.
		match("end_to_end of "+sw.Name, spec.EndToEnd, w.endToEnd())
	}
}

func TestUnknownWorkloadExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
