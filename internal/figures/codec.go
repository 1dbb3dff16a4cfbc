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
// with 1 KByte packets, timed by hostperf.Coder: encode is the number of
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
		enc := Series{Name: fmt.Sprintf("encoding k=%d", k)}
		dec := Series{Name: fmt.Sprintf("decoding k=%d", k)}
		for _, red := range redundancies {
			h := int(red*float64(k) + 0.5)
			if h < 1 {
				h = 1
			}
			if k+h > 255 {
				continue
			}
			e, d, err := hostperf.Coder(k, h, min(h, k), packetSize)
			if err != nil {
				return nil, err
			}
			x := 100 * float64(h) / float64(k)
			enc.X = append(enc.X, x)
			enc.Y = append(enc.Y, float64(k)*1e6/e)
			dec.X = append(dec.X, x)
			dec.Y = append(dec.Y, float64(k)*1e6/d)
		}
		fig.Series = append(fig.Series, enc, dec)
	}
	return fig, nil
}
