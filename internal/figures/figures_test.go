package figures

import (
	"bytes"
	"strings"
	"testing"
)

func quickOpt() Options { return Options{Seed: 1, Quick: true} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig14", "fig15", "fig16", "fig17", "fig18"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs()[%d] = %s, want %s (%v)", i, got[i], want[i], got)
		}
	}
	if _, err := Generate("fig2", quickOpt()); err == nil {
		t.Error("fig2 is a diagram; generator should not exist")
	}
}

func TestAllFiguresGenerate(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			fig, err := Generate(id, quickOpt())
			if err != nil {
				t.Fatal(err)
			}
			if fig.ID != id || len(fig.Series) == 0 {
				t.Fatalf("bad figure %+v", fig)
			}
			for _, s := range fig.Series {
				if len(s.X) == 0 || len(s.X) != len(s.Y) {
					t.Fatalf("series %q has %d/%d points", s.Name, len(s.X), len(s.Y))
				}
				for i, y := range s.Y {
					if y < 0 {
						t.Fatalf("series %q has negative value %g at x=%g", s.Name, y, s.X[i])
					}
				}
			}
			var buf bytes.Buffer
			if err := fig.WriteTSV(&buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, fig.Series[0].Name) {
				t.Error("TSV missing series header")
			}
			if strings.Count(out, "\n") < 3 {
				t.Error("TSV suspiciously short")
			}
		})
	}
}

func series(t *testing.T, f *Figure, name string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q (have %v)", f.ID, name,
		func() []string {
			var n []string
			for _, s := range f.Series {
				n = append(n, s.Name)
			}
			return n
		}())
	return Series{}
}

func lastY(s Series) float64 { return s.Y[len(s.Y)-1] }

func TestFig1Shape(t *testing.T) {
	fig, err := Generate("fig1", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	// Rate decreases with redundancy for every k, and k=100 encodes fewer
	// packets/s than k=7 at equal redundancy (work ~ k*h per k packets).
	for _, name := range []string{"encoding k=7", "encoding k=100"} {
		s := series(t, fig, name)
		if s.Y[0] <= lastY(s) {
			t.Errorf("%s: rate should fall with redundancy (%g .. %g)", name, s.Y[0], lastY(s))
		}
	}
	e7 := series(t, fig, "encoding k=7")
	e100 := series(t, fig, "encoding k=100")
	if lastY(e100) >= lastY(e7) {
		t.Errorf("k=100 at 100%% redundancy (%g pkt/s) should be slower than k=7 (%g pkt/s)",
			lastY(e100), lastY(e7))
	}
}

func TestFig5Shape(t *testing.T) {
	fig, err := Generate("fig5", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	noFEC := series(t, fig, "no FEC")
	layered := series(t, fig, "layered (7,9)")
	integrated := series(t, fig, "integrated")
	if !(lastY(integrated) < lastY(layered) && lastY(layered) < lastY(noFEC)) {
		t.Errorf("ordering at R=10^6: integrated %g < layered %g < noFEC %g violated",
			lastY(integrated), lastY(layered), lastY(noFEC))
	}
}

func TestFig11Shape(t *testing.T) {
	fig, err := Generate("fig11", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	// Shared loss needs fewer transmissions than independent loss at the
	// largest simulated R.
	fbt := series(t, fig, "non-FEC FBT loss")
	indep := series(t, fig, "non-FEC indep. loss")
	if lastY(fbt) >= lastY(indep) {
		t.Errorf("FBT no-FEC (%g) should be below independent (%g)", lastY(fbt), lastY(indep))
	}
	lfbt := series(t, fig, "layered FEC FBT loss")
	lindep := series(t, fig, "layered FEC indep. loss")
	if lastY(lfbt) >= lastY(lindep) {
		t.Errorf("FBT layered (%g) should be below independent (%g)", lastY(lfbt), lastY(lindep))
	}
}

func TestFig14Shape(t *testing.T) {
	fig, err := Generate("fig14", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	burst := series(t, fig, "burst loss, b = 2")
	bern := series(t, fig, "no burst loss")
	// The burst process produces longer runs than Bernoulli.
	if lastY(Series{X: burst.X, Y: burst.X}) <= lastY(Series{X: bern.X, Y: bern.X}) {
		t.Errorf("burst max run %g should exceed Bernoulli max run %g",
			burst.X[len(burst.X)-1], bern.X[len(bern.X)-1])
	}
	// Counts decay with length.
	if burst.Y[0] <= burst.Y[len(burst.Y)-1] {
		t.Error("burst histogram should decay")
	}
}

func TestFig15Shape(t *testing.T) {
	fig, err := Generate("fig15", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	noFEC := series(t, fig, "no FEC")
	l1 := series(t, fig, "FEC layer (7+1)")
	if lastY(l1) <= lastY(noFEC) {
		t.Errorf("under burst loss layered 7+1 (%g) should be WORSE than no FEC (%g)",
			lastY(l1), lastY(noFEC))
	}
}

func TestFig16Shape(t *testing.T) {
	fig, err := Generate("fig16", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	k7 := series(t, fig, "integrated FEC 2 k=7")
	k100 := series(t, fig, "integrated FEC 2 k=100")
	if lastY(k100) >= lastY(k7) {
		t.Errorf("k=100 (%g) should beat k=7 (%g) under burst loss", lastY(k100), lastY(k7))
	}
	if lastY(k100) > 1.4 {
		t.Errorf("integrated k=100 = %g, want near 1", lastY(k100))
	}
}

func TestFig17And18Shape(t *testing.T) {
	fig17, err := Generate("fig17", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	npS := series(t, fig17, "NP sender")
	npR := series(t, fig17, "NP receiver")
	if lastY(npS) >= lastY(npR) {
		t.Errorf("NP sender (%g) should be the bottleneck vs receiver (%g)", lastY(npS), lastY(npR))
	}

	fig18, err := Generate("fig18", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	n2 := series(t, fig18, "N2")
	npPre := series(t, fig18, "NP pre-encode")
	ratio := lastY(npPre) / lastY(n2)
	if ratio < 2 || ratio > 5 {
		t.Errorf("NP-pre/N2 throughput at R=10^6 = %g, want ~3", ratio)
	}
}

func TestSamplesForScaling(t *testing.T) {
	o := Options{Samples: 1500}
	if got := o.samplesFor(1); got != 1500 {
		t.Errorf("samplesFor(1) = %d", got)
	}
	if got := o.samplesFor(2048); got != 750 {
		t.Errorf("samplesFor(2048) = %d, want 750", got)
	}
	// The PR-3 floor: sparse engines keep even R = 10^6 points affordable
	// at 200 samples (the pre-PR floor of 24 gave unusable error bars).
	for _, r := range []int{1 << 17, 1_000_000} {
		if got := o.samplesFor(r); got != 200 {
			t.Errorf("samplesFor(%d) = %d, want floor 200", r, got)
		}
	}
}

// TestParallelDeterminism is the contract of internal/mcrun as seen from
// the figures: any worker count produces byte-identical TSV.
func TestParallelDeterminism(t *testing.T) {
	for _, id := range []string{"fig11", "fig15"} {
		render := func(parallel int) string {
			fig, err := Generate(id, Options{Seed: 7, Quick: true, Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := fig.WriteTSV(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		serial := render(1)
		if parallel := render(8); parallel != serial {
			t.Errorf("%s: -parallel 8 TSV differs from -parallel 1", id)
		}
	}
}

func TestRenderASCII(t *testing.T) {
	fig, err := Generate("fig5", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig.RenderASCII(&buf, 60, 16); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig5", "*", "o", "+", "no FEC", "integrated", "x:", "y:"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII render missing %q", want)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + 16 grid rows + axis + x labels + axis names + 3 legend rows.
	if len(lines) != 1+16+1+1+1+len(fig.Series) {
		t.Errorf("render has %d lines", len(lines))
	}
	if err := fig.RenderASCII(&buf, 5, 2); err == nil {
		t.Error("tiny plot accepted")
	}
	empty := &Figure{ID: "x", Series: []Series{}}
	if err := empty.RenderASCII(&buf, 60, 10); err == nil {
		t.Error("empty figure accepted")
	}
	onePoint := &Figure{ID: "p", Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{2}}}}
	if err := onePoint.RenderASCII(&buf, 30, 6); err != nil {
		t.Errorf("single point: %v", err)
	}
	logZero := &Figure{ID: "z", XLog: true, Series: []Series{{Name: "s", X: []float64{0}, Y: []float64{1}}}}
	if err := logZero.RenderASCII(&buf, 30, 6); err == nil {
		t.Error("log axis with only nonpositive x accepted")
	}
}
