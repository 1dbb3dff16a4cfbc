// Command rsebench measures the Reed-Solomon erasure coder's throughput in
// the form of the paper's Fig. 1: encode and decode rates in packets per
// second as a function of the redundancy h/k, for several transmission
// group sizes.
//
//	rsebench                       # the paper's k = 7, 20, 100 at 1 KByte
//	rsebench -k 32 -size 2048      # one custom configuration
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rmfec/internal/figures"
	"rmfec/internal/gf256"
)

func main() {
	var (
		ks   = flag.String("k", "7,20,100", "comma-separated TG sizes")
		size = flag.Int("size", 1024, "packet size in bytes")
		seed = flag.Int64("seed", 1, "data seed")
	)
	flag.Parse()

	fmt.Printf("# gf256 kernel: %s\n", gf256.Kernel())
	fmt.Printf("%-6s %-6s %-12s %-16s %-16s\n", "k", "h", "redundancy", "encode [pkt/s]", "decode [pkt/s]")
	for _, kStr := range strings.Split(*ks, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(kStr))
		if err != nil || k < 1 {
			fmt.Fprintf(os.Stderr, "rsebench: bad k %q\n", kStr)
			os.Exit(1)
		}
		for _, red := range []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0} {
			h := int(red*float64(k) + 0.5)
			if h < 1 {
				h = 1
			}
			if k+h > 255 {
				continue
			}
			enc, dec, err := figures.CodecRates(k, h, *size, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rsebench:", err)
				os.Exit(1)
			}
			fmt.Printf("%-6d %-6d %-12.1f %-16.0f %-16.0f\n",
				k, h, 100*float64(h)/float64(k), enc, dec)
		}
	}
}
