package figures

import (
	"fmt"

	"rmfec/internal/gf256"
	"rmfec/internal/hostperf"
)

func init() {
	register("fig1", fig1)
}

// fig1: coding and decoding rates versus redundancy h/k for k = 7, 20, 100
// with 1 KByte packets, timed by hostperf.Coder (each k's points
// interleaved, best of several windows): encode is the number of
// data packets processed per second while producing h parities per k,
// decode the number while reconstructing min(h, k) lost data packets. The
// figure's 1/(k*h) shape is hardware-independent even though the absolute
// rates reflect this machine rather than a Pentium 133. The title names
// the gf256 kernel that ran (avx2 or portable), so a Fig-1 number says
// which one produced it.
func fig1(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fig1",
		Title:  "Encoding/decoding speed vs redundancy, P = 1 KByte, gf256 kernel " + gf256.Kernel(),
		XLabel: "redundancy h/k [%]",
		YLabel: "rate [packets/s]",
		YLog:   true,
	}
	packetSize := 1024
	if opt.Quick {
		packetSize = 256
	}
	redundancies := []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
	for _, k := range []int{7, 20, 100} {
		// At small k neighbouring redundancies round to the same h
		// (k = 7: 5 %, 10 % and 20 % all give h = 1); each h is timed once.
		var pts []hostperf.CoderPoint
		for _, red := range redundancies {
			if h := max(int(red*float64(k)+0.5), 1); k+h <= 255 && (len(pts) == 0 || pts[len(pts)-1].H != h) {
				pts = append(pts, hostperf.CoderPoint{K: k, H: h, Lose: min(h, k)})
			}
		}
		e, d, err := hostperf.Coder(packetSize, pts...)
		if err != nil {
			return nil, err
		}
		enc := Series{Name: fmt.Sprintf("encoding k=%d", k)}
		dec := Series{Name: fmt.Sprintf("decoding k=%d", k)}
		for i, p := range pts {
			x := 100 * float64(p.H) / float64(k)
			enc.X = append(enc.X, x)
			enc.Y = append(enc.Y, float64(k)*1e6/e[i])
			dec.X = append(dec.X, x)
			dec.Y = append(dec.Y, float64(k)*1e6/d[i])
		}
		fig.Series = append(fig.Series, enc, dec)
	}
	return fig, nil
}
