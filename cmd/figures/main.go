// Command figures regenerates the paper's evaluation figures as TSV data.
//
//	figures -fig all -out results/        # every figure, one file each
//	figures -fig 5                        # figure 5 to stdout
//	figures -fig 11 -samples 4000         # more Monte-Carlo precision
//	figures -quick                        # fast smoke run of everything
//	figures -fig all -parallel 8          # 8 Monte-Carlo workers; output
//	                                      # is byte-identical at any -parallel
//
// Figure numbers follow the paper: 1 (coder throughput), 3-12 and 14-16
// (expected transmissions under the various loss models), 17-18 (end-host
// processing rates and throughput). Figures 2 and 13 are diagrams.
//
// Monte-Carlo points run on the deterministic parallel runner
// (internal/mcrun): every point's RNG seed derives from -seed and the
// point's label, so worker count and scheduling never change the output.
// -cpuprofile/-memprofile capture pprof data for the simulation hot path.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rmfec/internal/figures"
	"rmfec/internal/hostperf"
	"rmfec/internal/metrics"
)

func main() {
	var (
		fig        = flag.String("fig", "all", `figure to generate: "all", "5", or "fig5"`)
		out        = flag.String("out", "", "output directory (default: stdout)")
		samples    = flag.Int("samples", 0, "base Monte-Carlo samples per point (default 1500)")
		seed       = flag.Int64("seed", 1997, "random seed")
		quick      = flag.Bool("quick", false, "fast low-precision run")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "Monte-Carlo worker count (results identical for any value)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		meas       = flag.Bool("measured", false, "use THIS machine's measured timing constants for figs 17/18 instead of the paper's DECstation constants")
		ascii      = flag.Bool("ascii", false, "render an ASCII plot instead of TSV (stdout only)")
		showMet    = flag.Bool("metrics", false, "print an end-of-run metrics snapshot (Prometheus text) to stderr")
	)
	flag.Parse()

	// Run-level instrumentation: nil registry (flag off) makes every
	// instrument a no-op, so the generation loop below meters itself
	// unconditionally.
	var reg *metrics.Registry
	if *showMet {
		reg = metrics.NewRegistry()
	}
	figsDone, mcSamples, genSecs := figures.RunMetrics(reg)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	opt := figures.Options{Seed: *seed, Samples: *samples, Quick: *quick, Parallel: *parallel}
	if *meas {
		tm, err := hostperf.Timing()
		if err != nil {
			fatal(fmt.Errorf("measuring host timing: %w", err))
		}
		opt.Timing = &tm
		fmt.Fprintf(os.Stderr, "measured timing [µs]: Xp=%.2f Xn=%.2f Yp=%.2f Yn=%.2f Yt=%.3f Ce=%.3f Cd=%.3f\n",
			tm.Xp, tm.Xn, tm.Yp, tm.Yn, tm.Yt, tm.Ce, tm.Cd)
	}

	var ids []string
	if *fig == "all" {
		ids = figures.IDs()
	} else {
		id := *fig
		if !strings.HasPrefix(id, "fig") {
			id = "fig" + id
		}
		ids = []string{id}
	}

	for _, id := range ids {
		start := time.Now()
		f, err := figures.Generate(id, opt)
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		figsDone.Inc()
		mcSamples.Add(uint64(f.SimSamples))
		genSecs.Observe(elapsed.Seconds())
		if *out == "" {
			var err error
			if *ascii {
				err = f.RenderASCII(os.Stdout, 78, 20)
			} else {
				err = f.WriteTSV(os.Stdout)
			}
			if err != nil {
				fatal(err)
			}
			fmt.Println()
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*out, id+".tsv")
		w, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := f.WriteTSV(w); err != nil {
			w.Close()
			fatal(err)
		}
		if err := w.Close(); err != nil {
			fatal(err)
		}
		perf := fmt.Sprintf("%.2fs", elapsed.Seconds())
		if f.SimSamples > 0 && elapsed > 0 {
			perf += fmt.Sprintf(", %d samples, %.0f samples/s",
				f.SimSamples, float64(f.SimSamples)/elapsed.Seconds())
		}
		fmt.Printf("%s: %s (%d series, %s)\n", path, f.Title, len(f.Series), perf)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if reg != nil {
		fmt.Fprintln(os.Stderr, "# figures: end-of-run metrics snapshot")
		if err := reg.WritePrometheus(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// fatal prints err behind one "figures: " prefix and exits; the figures
// package's own errors already carry it.
func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "figures: ") {
		msg = "figures: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
