// Package figures regenerates every evaluation figure of the paper. Each
// generator returns the plotted series as numeric data; cmd/figures writes
// them as TSV for plotting, and EXPERIMENTS.md records the comparison with
// the published curves.
//
// Figures 2 and 13 are architecture/timing diagrams with nothing to
// measure; all other figures (1, 3-12, 14-18) have a generator here.
package figures

import (
	"fmt"
	"io"
	"sort"

	"rmfec/internal/metrics"
	"rmfec/internal/model"
)

// RunMetrics registers the instruments a figures run is metered with on
// reg: figures generated, the Monte-Carlo samples behind them and the
// wall-clock seconds per figure. A nil reg yields no-op instruments.
func RunMetrics(reg *metrics.Registry) (generated, samples *metrics.Counter, seconds *metrics.Histogram) {
	return reg.Counter("figures_generated_total", "figures generated this run"),
		reg.Counter("figures_mc_samples_total", "Monte-Carlo samples behind the generated figures"),
		reg.Histogram("figures_generate_seconds", "wall-clock per figure generation",
			[]float64{0.1, 0.5, 1, 5, 15, 60, 300})
}

// Series is one plotted curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced evaluation artifact.
type Figure struct {
	ID     string // e.g. "fig5"
	Title  string
	XLabel string
	YLabel string
	XLog   bool // paper plots R and p on log axes
	YLog   bool
	Series []Series
	// SimSamples counts the Monte-Carlo samples (transmission groups,
	// packets or census packets) behind the figure; 0 for analytic
	// figures. cmd/figures reports it as samples/s next to wall-clock.
	SimSamples int
}

// Options tunes the generators.
type Options struct {
	// Seed drives every Monte-Carlo generator; same seed, same figure.
	Seed int64
	// Samples is the base Monte-Carlo sample count per point, scaled down
	// automatically as the receiver population grows. 0 means 1500.
	Samples int
	// Quick truncates receiver grids and sample counts so the full set of
	// figures regenerates in seconds (used by tests and smoke runs).
	Quick bool
	// Parallel is the worker count for the Monte-Carlo point runner
	// (internal/mcrun). Every value, including the default GOMAXPROCS
	// (0), produces byte-identical output: each point runs from its own
	// seed derived from Seed and the point's label, and results merge in
	// fixed point order.
	Parallel int
	// Timing overrides the end-host timing constants of Figs 17/18. nil
	// uses model.PaperTiming (the DECstation constants); pass the result
	// of hostperf.Timing for this machine's numbers.
	Timing *model.Timing
}

// timing returns the effective end-host timing constants.
func (o Options) timing() model.Timing {
	if o.Timing != nil {
		return *o.Timing
	}
	return model.PaperTiming
}

func (o *Options) defaults() {
	if o.Samples == 0 {
		o.Samples = 1500
		if o.Quick {
			o.Samples = 200
		}
	}
}

// samplesFor scales the base sample count down for large populations. The
// sparse engines' per-sample cost grows with the loss count p*R rather
// than R, so the decay is far gentler than the pre-PR r/64 schedule and
// the floor is raised from 24 to 200 samples — the large-R points of the
// simulated curves now carry usable standard errors instead of the wide
// error bars of the throttled runs.
func (o Options) samplesFor(r int) int {
	s := o.Samples / max(1, r/1024)
	if s < 200 {
		s = 200
	}
	return s
}

// Generator produces one figure.
type Generator func(Options) (*Figure, error)

// registry maps figure ids to generators; filled by the sibling files.
var registry = map[string]Generator{}

func register(id string, g Generator) {
	if _, dup := registry[id]; dup {
		panic("figures: duplicate generator " + id)
	}
	registry[id] = g
}

// IDs returns all known figure ids in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// fig1 < fig3 < ... < fig18 numerically.
		var a, b int
		fmt.Sscanf(ids[i], "fig%d", &a) //nolint:errcheck
		fmt.Sscanf(ids[j], "fig%d", &b) //nolint:errcheck
		return a < b
	})
	return ids
}

// Generate produces the figure with the given id.
func Generate(id string, opt Options) (*Figure, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("figures: unknown figure %q (known: %v)", id, IDs())
	}
	opt.defaults()
	return g(opt)
}

// WriteTSV renders the figure as tab-separated values: a header of series
// names, then one row per x with blank cells where a series has no sample
// at that x.
func (f *Figure) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n# x: %s, y: %s\n", f.ID, f.Title, f.XLabel, f.YLabel); err != nil {
		return err
	}
	// Collect the union of x values.
	xsSet := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	fmt.Fprint(w, "x") //nolint:errcheck
	for _, s := range f.Series {
		fmt.Fprintf(w, "\t%s", s.Name) //nolint:errcheck
	}
	fmt.Fprintln(w) //nolint:errcheck

	// Exact map keys, not float ==: the row keys come verbatim from the
	// series' own x values, so bit-identical lookup is the right semantics.
	cells := make([]map[float64]float64, len(f.Series))
	for si, s := range f.Series {
		cells[si] = make(map[float64]float64, len(s.X))
		for i, sx := range s.X {
			cells[si][sx] = s.Y[i]
		}
	}
	for _, x := range xs {
		fmt.Fprintf(w, "%g", x) //nolint:errcheck
		for si := range f.Series {
			cell := ""
			if y, ok := cells[si][x]; ok {
				cell = fmt.Sprintf("%.6g", y)
			}
			fmt.Fprintf(w, "\t%s", cell) //nolint:errcheck
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// receiverGrid returns the log-spaced population grid 1..10^6 (1-2-5
// ladder), truncated in Quick mode.
func receiverGrid(opt Options, maxR int) []int {
	var grid []int
	for _, base := range []int{1, 10, 100, 1000, 10000, 100000, 1000000} {
		for _, m := range []int{1, 2, 5} {
			r := base * m
			if r > maxR {
				return grid
			}
			grid = append(grid, r)
		}
	}
	return grid
}
