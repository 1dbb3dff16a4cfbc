package main

// -compare old new: the ledger's regression rule. Each side is one ledger
// file or a directory of them (several full sets of runs of one commit);
// a side's value is the median over its files and its spread the distance
// between their quartiles as a share of that median.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

func loadLedgers(path string) ([]ledger, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("%s: no ledger files", path)
		}
	}
	var out []ledger
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var l ledger
		if err := json.Unmarshal(b, &l); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, l)
	}
	return out, nil
}

// values returns the metric's value in every ledger of one side.
func values(side []ledger, workload, name string, perLayer bool) []float64 {
	var xs []float64
	for _, l := range side {
		for _, e := range l.Workloads {
			if e.Name != workload {
				continue
			}
			res := e.EndToEnd
			if perLayer {
				res = e.PerLayer
			}
			if m, ok := res.Metrics[name]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median; a side
// with a single run has none to show.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// compareLedgers prints one row per workload and metric and fails when an
// end-to-end metric's median got worse by more than its bound.
func compareLedgers(sp *spec, oldPath, newPath string, w io.Writer) error {
	before, err := loadLedgers(oldPath)
	if err != nil {
		return err
	}
	after, err := loadLedgers(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told\tnew\tdelta\tbound\tspread\tverdict")
	worse := 0
	row := func(workload string, ms metricSpec, perLayer bool) {
		a, b := values(before, workload, ms.Name, perLayer), values(after, workload, ms.Name, perLayer)
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t-\tmissing\n", workload, ms.Name, ms.Unit)
			return
		}
		x, y := median(a), median(b)
		delta := 0.0
		if x != 0 {
			delta = (y - x) / x
		}
		sprd := max(spread(a), spread(b))
		bound, verdict := "-", "-"
		if !perLayer {
			bound = fmt.Sprintf("%.1f%%", 100*ms.Bound)
			loss := delta // how much worse, as a share of old
			if ms.Better == "higher" {
				loss = -delta
			}
			switch {
			case loss > ms.Bound:
				verdict = "worse"
				worse++
			case sprd > ms.Bound:
				verdict = "unresolved"
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t%.2f%%\t%s\n",
			workload, ms.Name, ms.Unit, x, y, 100*delta, bound, 100*sprd, verdict)
	}
	for _, wl := range sp.Workloads {
		for _, ms := range sp.EndToEnd {
			row(wl.Name, ms, false)
		}
	}
	for _, wl := range sp.Workloads {
		for _, ms := range sp.PerLayer {
			row(wl.Name, ms, true)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics got worse by more than their bound", worse)
	}
	return nil
}

// printEntry prints every metric of one workload by name, with its unit.
func printEntry(w io.Writer, sp *spec, e *ledgerEntry) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tcorrect=%v\tattempted=%d\tfailed=%d\n", e.Name,
		e.EndToEnd.Correct && e.PerLayer.Correct, e.EndToEnd.Attempted, e.EndToEnd.Failed)
	for _, ms := range sp.EndToEnd {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", ms.Name, e.EndToEnd.Metrics[ms.Name].Value, ms.Unit)
	}
	for _, ms := range sp.PerLayer {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", ms.Name, e.PerLayer.Metrics[ms.Name].Value, ms.Unit)
	}
	tw.Flush()
}
