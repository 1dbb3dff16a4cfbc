package figures

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// seriesGlyphs mark the points of successive series in ASCII renderings.
var seriesGlyphs = []rune{'*', 'o', '+', 'x', '#', '@', '%', '&', '=', '~'}

// RenderASCII draws the figure as a width x height character plot with a
// legend, honouring the figure's XLog/YLog flags — a quick terminal look
// at a curve without leaving the shell.
func (f *Figure) RenderASCII(w io.Writer, width, height int) error {
	if width < 20 || height < 5 {
		return fmt.Errorf("figures: ASCII plot needs at least 20x5, got %dx%d", width, height)
	}
	if len(f.Series) == 0 {
		return fmt.Errorf("figures: %s has no series", f.ID)
	}

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if f.XLog && x <= 0 || f.YLog && y <= 0 {
				continue
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if xmin > xmax || ymin > ymax {
		return fmt.Errorf("figures: %s has no plottable points", f.ID)
	}
	xt := func(v float64) float64 {
		if f.XLog {
			return math.Log10(v)
		}
		return v
	}
	yt := func(v float64) float64 {
		if f.YLog {
			return math.Log10(v)
		}
		return v
	}
	x0, x1 := xt(xmin), xt(xmax)
	y0, y1 := yt(ymin), yt(ymax)
	// Guard the divisions below against a zero-width range, which only
	// occurs when every point shares one bit-identical coordinate.
	if x1-x0 == 0 {
		x1 = x0 + 1
	}
	if y1-y0 == 0 {
		y1 = y0 + 1
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if f.XLog && x <= 0 || f.YLog && y <= 0 {
				continue
			}
			col := int((xt(x) - x0) / (x1 - x0) * float64(width-1))
			row := height - 1 - int((yt(y)-y0)/(y1-y0)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = glyph
			}
		}
	}

	if _, err := fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title); err != nil {
		return err
	}
	yLabelHi := fmt.Sprintf("%.3g", ymax)
	yLabelLo := fmt.Sprintf("%.3g", ymin)
	pad := len(yLabelHi)
	if len(yLabelLo) > pad {
		pad = len(yLabelLo)
	}
	for r, line := range grid {
		label := strings.Repeat(" ", pad)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", pad, yLabelHi)
		case height - 1:
			label = fmt.Sprintf("%*s", pad, yLabelLo)
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, string(line)); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", pad), strings.Repeat("-", width)) //nolint:errcheck
	fmt.Fprintf(w, "%s  %-10.3g%*s\n", strings.Repeat(" ", pad), xmin,
		width-10, fmt.Sprintf("%.3g", xmax)) //nolint:errcheck
	fmt.Fprintf(w, "%s  x: %s   y: %s\n", strings.Repeat(" ", pad), f.XLabel, f.YLabel) //nolint:errcheck
	for si, s := range f.Series {
		if _, err := fmt.Fprintf(w, "%s  %c %s\n", strings.Repeat(" ", pad),
			seriesGlyphs[si%len(seriesGlyphs)], s.Name); err != nil {
			return err
		}
	}
	return nil
}
