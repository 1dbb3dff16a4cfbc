package rse_test

import (
	"fmt"

	"rmfec/internal/rse"
)

// Encode a transmission group, lose any h packets, reconstruct.
func Example() {
	code, err := rse.New(4, 2)
	if err != nil {
		panic(err)
	}
	data := [][]byte{
		[]byte("pack"), []byte("ets "), []byte("of a"), []byte(" TG!"),
	}
	parity := make([][]byte, 2)
	if err := code.Encode(data, parity); err != nil {
		panic(err)
	}
	// The FEC block: 4 data + 2 parity shards. Lose two data packets.
	shards := [][]byte{nil, data[1], nil, data[3], parity[0], parity[1]}
	if err := code.Reconstruct(shards); err != nil {
		panic(err)
	}
	fmt.Printf("%s%s%s%s\n", shards[0], shards[1], shards[2], shards[3])
	// Output:
	// packets of a TG!
}
