package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to a test-sized one: same engines, same loss,
// same code paths, a fraction of the packets.
func tiny(w workload) *workload {
	w.msgBytes = min(w.msgBytes, 512<<10)
	w.fieldR = min(w.fieldR, 20_000)
	w.protoN = 2
	return &w
}

func tinyRun(w workload, seed int64) *run {
	return &run{w: tiny(w), seed: seed, layerBudget: time.Millisecond}
}

// TestLedger runs every workload at tiny size through both passes and
// checks the output against BENCHMARK.json: same workload names, same
// metric names, every name printable, every gate passed, one span file per
// workload; and that -compare of the resulting ledger with itself is all ok.
func TestLedger(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	out := t.TempDir()
	led := ledger{Host: thisHost(), Seed: 1}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, sp.Workloads[i].Name, w.name)
		}
		e := ledgerEntry{Name: w.name}
		if e.EndToEnd, err = measure(sp, tinyRun(w, 1), 0, false, out); err != nil {
			t.Fatal(err)
		}
		if e.PerLayer, err = measure(sp, tinyRun(w, 1), 0, true, out); err != nil {
			t.Fatal(err)
		}
		for pass, res := range map[string]result{"end-to-end": e.EndToEnd, "per-layer": e.PerLayer} {
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.name, pass, res.Correct, res.Attempted, res.Failed)
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) || m.Unit == "" {
					t.Errorf("%s %s: metric %q (unit %q) is not printable", w.name, pass, name, m.Unit)
				}
			}
		}
		for _, ms := range sp.EndToEnd {
			if e.EndToEnd.Metrics[ms.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, ms.Name, e.EndToEnd.Metrics[ms.Name].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(out, w.name+".spans.jsonl")); err != nil {
			t.Error(err)
		}
		// Each workload bypasses the layers it claims to bypass.
		pl := e.PerLayer.Metrics
		if !w.adaptive && pl["adapt.retunes"].Value != 0 {
			t.Errorf("%s: adapt.retunes = %v without AdaptiveFEC", w.name, pl["adapt.retunes"].Value)
		}
		if w.lossP == 0 && !w.adaptive && pl["core.receiver.decodes"].Value != 0 {
			t.Errorf("%s: core.receiver.decodes = %v on a lossless medium", w.name, pl["core.receiver.decodes"].Value)
		}
		if w.a == 0 && w.lossP == 0 && !w.adaptive && pl["core.sender.parities_encoded"].Value != 0 {
			t.Errorf("%s: core.sender.parities_encoded = %v with nothing to encode", w.name, pl["core.sender.parities_encoded"].Value)
		}
		if c := pl["trace.coverage"].Value; c < 0.9 || c > 1.1 {
			t.Errorf("%s: trace.coverage = %v, want 0.9..1.1", w.name, c)
		}
		led.Workloads = append(led.Workloads, e)
	}

	b, err := led.encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(out, "ledger.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if err := compareLedgers(sp, path, path, &table); err != nil {
		t.Fatalf("compare with itself: %v\n%s", err, table.String())
	}
	for _, bad := range []string{"worse", "unresolved", "missing"} {
		if strings.Contains(table.String(), bad) {
			t.Errorf("compare with itself reports %q:\n%s", bad, table.String())
		}
	}
	if got, want := strings.Count(table.String(), " ok\n"), len(workloads)*len(sp.EndToEnd); got != want {
		t.Errorf("compare with itself: %d ok rows, want %d", got, want)
	}
}

// TestExactRepeat pins the protocol metrics to the seed: the same seed
// reproduces them bit for bit, another seed moves them.
func TestExactRepeat(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	exact := []string{"tx_per_pkt", "ctrl_per_group", "completion_stretch"}
	for _, name := range []string{"lossy_decode", "adaptive_shift", "field_1e6"} {
		w := *findWorkload(name)
		var runs []result
		for _, seed := range []int64{7, 7, 9} {
			res, err := measure(sp, tinyRun(w, seed), 0, false, "")
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, res)
		}
		moved := false
		for _, m := range exact {
			if a, b := runs[0].Metrics[m].Value, runs[1].Metrics[m].Value; a != b {
				t.Errorf("%s: %s = %v then %v under one seed", name, m, a, b)
			}
			moved = moved || runs[0].Metrics[m].Value != runs[2].Metrics[m].Value
		}
		if !moved {
			t.Errorf("%s: another seed left every protocol metric unchanged", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
