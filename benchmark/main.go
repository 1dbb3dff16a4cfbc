// Command benchmark is the repository's performance ledger: six NP
// transfer workloads on the in-process simnet medium, five end-to-end
// metrics per workload, and per-layer metrics taken from outside the
// engines. BENCHMARK.json at the root of the repository names the
// workloads and every metric with its unit, direction and regression
// bound; this program refuses to report a metric that file does not name.
//
//	go run ./benchmark -seed 1                      every workload, both passes
//	go run ./benchmark -workload clean_1k -trace 0  one workload, end-to-end metrics
//	go run ./benchmark -workload clean_1k -trace 1  one workload, per-layer metrics
//	go run ./benchmark -compare old new             ledger files or directories of them
//
// See README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// conform checks that a result reports exactly the metrics want names, and
// stamps each with the unit BENCHMARK.json gives it.
func conform(res *result, want []metricSpec) error {
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("run reports %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, ms := range want {
		m, ok := res.Metrics[ms.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names metric %q, which the run does not report", ms.Name)
		}
		if !nameRE.MatchString(ms.Name) {
			return fmt.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", ms.Name)
		}
		m.Unit = ms.Unit
		res.Metrics[ms.Name] = m
	}
	return nil
}

// measure runs one pass of one workload and conforms its result.
func measure(sp *spec, r *run, seconds float64, traced bool, traceOut string) (result, error) {
	var res result
	var err error
	want := sp.EndToEnd
	if traced {
		res, err = r.layered(seconds, traceOut)
		want = sp.PerLayer
	} else {
		res, err = r.endToEnd(seconds)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", r.w.name, err)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "benchmark: INCORRECT:", p)
	}
	if err := conform(&res, want); err != nil {
		return result{}, err
	}
	return res, nil
}

func newRun(w *workload, seed int64) *run {
	return &run{w: w, seed: seed, setupBudget: setupBudget, layerBudget: layerBudget}
}

// ledger is the output of a full set of runs: what -compare reads and what
// benchmark/baseline/ holds.
type ledger struct {
	Host      host          `json:"host"`
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Workloads []ledgerEntry `json:"workloads"`
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Medium     string `json:"medium"`
}

type ledgerEntry struct {
	Name     string `json:"name"`
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// encode writes the ledger with one line per workload, so that a committed
// baseline stays small and still diffs by workload.
func (l ledger) encode() ([]byte, error) {
	entries := l.Workloads
	l.Workloads = nil
	head, err := json.Marshal(l)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.Write(bytes.TrimSuffix(head, []byte("null}")))
	b.WriteString("[\n")
	for i, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		if i < len(entries)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	return b.Bytes(), nil
}

func thisHost() host {
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Medium: "in-process simnet, virtual time; no socket, no loopback interface",
	}
}

func main() {
	var (
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark's definition")
		name     = flag.String("workload", "", "run this workload only and print its result as the last line")
		seed     = flag.Int64("seed", 1, "every input of the run derives from it")
		seconds  = flag.Float64("seconds", 0, "measuring time per pass (default: run_seconds of the definition)")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		traceOut = flag.String("trace-out", "benchmark/out", "directory for the traced pass's span files")
		out      = flag.String("out", "", "without -workload: write the ledger here instead of standard output")
		compare  = flag.Bool("compare", false, "compare two ledgers (files or directories): -compare old new")
	)
	flag.Parse()
	if err := mainErr(*specPath, *name, *seed, *seconds, *trace, *traceOut, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness gate failed")

func mainErr(specPath, name string, seed int64, seconds float64, trace int, traceOut, out string, compare bool, args []string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two ledgers: old new")
		}
		return compareLedgers(sp, args[0], args[1], os.Stdout)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if len(sp.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	h := thisHost()
	fmt.Fprintf(os.Stderr, "benchmark: nproc=%d GOMAXPROCS=%d %s; medium: %s\n", h.NumCPU, h.GOMAXPROCS, h.Go, h.Medium)

	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("no workload %q", name)
		}
		res, err := measure(sp, newRun(w, seed), seconds, trace == 1, traceOut)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return errIncorrect
		}
		return nil
	}

	led := ledger{Host: h, Seed: seed, Seconds: seconds}
	correct := true
	for i := range workloads {
		w := &workloads[i]
		e := ledgerEntry{Name: w.name}
		if e.EndToEnd, err = measure(sp, newRun(w, seed), seconds, false, traceOut); err != nil {
			return err
		}
		if e.PerLayer, err = measure(sp, newRun(w, seed), seconds, true, traceOut); err != nil {
			return err
		}
		correct = correct && e.EndToEnd.Correct && e.PerLayer.Correct
		printEntry(os.Stderr, sp, &e)
		led.Workloads = append(led.Workloads, e)
	}
	b, err := led.encode()
	if err != nil {
		return err
	}
	if out == "" {
		_, err = os.Stdout.Write(b)
	} else {
		err = os.WriteFile(out, b, 0o644)
	}
	if err != nil {
		return err
	}
	if !correct {
		return errIncorrect
	}
	return nil
}
