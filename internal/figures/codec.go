package figures

import (
	"fmt"
	"math/rand"
	"time"

	"rmfec/internal/gf256"
	"rmfec/internal/rse"
)

func init() {
	register("fig1", fig1)
}

// CodecRates measures the throughput of the Reed-Solomon coder for one
// (k, h) pair with packetSize-byte packets, in the units of Fig. 1:
// encode is the number of DATA packets processed per second while
// producing h parities per k; decode is the number of data packets
// processed per second while reconstructing h lost data packets from the
// parities. The figure's 1/(k*h) shape is hardware-independent even though
// the absolute rates reflect this machine rather than a Pentium 133.
func CodecRates(k, h, packetSize int, seed int64) (encode, decode float64, err error) {
	code, err := rse.New(k, h)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, packetSize)
		rng.Read(data[i])
	}
	parity := make([][]byte, h)

	// Encode throughput. Wall-clock reads are the measurement itself here
	// (Fig 1 reports real codec speed on this host), not protocol time, so
	// they cannot flow through core.Env.
	iters := 0
	start := time.Now() //rmlint:ignore env-discipline wall-clock benchmark of codec throughput, not protocol time
	var elapsed time.Duration
	for elapsed < 60*time.Millisecond {
		if err := code.Encode(data, parity); err != nil {
			return 0, 0, err
		}
		iters++
		elapsed = time.Since(start) //rmlint:ignore env-discipline wall-clock benchmark of codec throughput, not protocol time
	}
	encode = float64(iters*k) / elapsed.Seconds()

	// Decode throughput: lose min(h,k) data packets, reconstruct from the
	// remaining data plus parities. The lost shards are handed back as
	// recycled zero-length buffers, so the loop measures the steady-state
	// receiver path: the l×l subsystem solve, no allocation.
	lose := h
	if lose > k {
		lose = k
	}
	lostBuf := make([][]byte, lose)
	for i := range lostBuf {
		lostBuf[i] = make([]byte, packetSize)
	}
	shards := make([][]byte, k+h)
	iters = 0
	start = time.Now() //rmlint:ignore env-discipline wall-clock benchmark of codec throughput, not protocol time
	elapsed = 0
	for elapsed < 60*time.Millisecond {
		for i := 0; i < k; i++ {
			if i < lose {
				shards[i] = lostBuf[i][:0]
			} else {
				shards[i] = data[i]
			}
		}
		for j := 0; j < h; j++ {
			shards[k+j] = parity[j]
		}
		if err := code.Reconstruct(shards); err != nil {
			return 0, 0, err
		}
		iters++
		elapsed = time.Since(start) //rmlint:ignore env-discipline wall-clock benchmark of codec throughput, not protocol time
	}
	decode = float64(iters*k) / elapsed.Seconds()
	return encode, decode, nil
}

// fig1: coding and decoding rates versus redundancy h/k for k = 7, 20, 100
// with 1 KByte packets, measured on this repository's coder. The title
// names the gf256 kernel that ran (avx2 or portable), so a Fig-1 number
// says which one produced it.
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
			e, d, err := CodecRates(k, h, packetSize, opt.Seed)
			if err != nil {
				return nil, err
			}
			x := 100 * float64(h) / float64(k)
			enc.X = append(enc.X, x)
			enc.Y = append(enc.Y, e)
			dec.X = append(dec.X, x)
			dec.Y = append(dec.Y, d)
		}
		fig.Series = append(fig.Series, enc, dec)
	}
	return fig, nil
}
