package core

import (
	"sync"
	"time"
)

// Codec-gate modes (Config.CodecGate). The gate decides whether a
// non-default codec a ladder rung requests is actually admitted for an
// era, extending the measured-speedup discipline of the PR-2 GF kernel
// gate to whole codecs: a codec earns its rung only by beating the
// incumbent Reed-Solomon code's measured encode cost at the same (k, h,
// shard size) working point.
const (
	// GateMeasure (the default) micro-benchmarks the candidate against
	// RS once per (codec, k, h, shard size) working point and caches the
	// verdict process-wide.
	GateMeasure = 0
	// GateForce admits every well-formed candidate without measuring.
	// Determinism tests use it so transcript comparisons across
	// processes cannot flip on timing noise.
	GateForce = 1
	// GateOff rejects every candidate, pinning the session to RS.
	GateOff = 2
)

// gateKey identifies one measured working point.
type gateKey struct {
	id, arg uint8
	k, h    int
	size    int
}

// gateCache memoizes measured verdicts process-wide, so repeated eras —
// and repeated senders in one process — pay the micro-benchmark once per
// working point. Guarded by a mutex because senders on different
// goroutines may reach the gate concurrently.
var gateCache = struct {
	sync.Mutex
	m map[gateKey]bool
}{m: make(map[gateKey]bool)}

// gateAdmit reports whether candidate should replace the RS incumbent at
// (k, h) for shardSize-byte shards, by measuring one block encode of
// each through the EncodeRows the sender runs (minimum of three
// repetitions) and admitting the candidate only
// when it is strictly faster. The verdict is memoized process-wide; the
// micro-benchmark itself runs off the simulated clock by design — it
// measures this host's real CPU, which is exactly the quantity the cost
// model approximates — so callers needing cross-process determinism must
// use GateForce or GateOff instead.
func gateAdmit(candidate, incumbent Codec, k, h, shardSize int) bool {
	id, arg := candidate.ID()
	key := gateKey{id: id, arg: arg, k: k, h: h, size: shardSize}
	gateCache.Lock()
	if v, ok := gateCache.m[key]; ok {
		gateCache.Unlock()
		return v
	}
	gateCache.Unlock()

	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, shardSize)
		for b := range data[i] {
			data[i][b] = byte(i + b)
		}
	}
	parity := make([][]byte, h)
	admit := measureEncode(candidate, data, parity) < measureEncode(incumbent, data, parity)

	gateCache.Lock()
	gateCache.m[key] = admit
	gateCache.Unlock()
	return admit
}

// measureEncode returns the fastest of three timed block encodes.
func measureEncode(c Codec, data, parity [][]byte) time.Duration {
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		//rmlint:ignore env-discipline the codec gate measures this host's real encode CPU, not simulated time; verdicts are memoized and never steer simulated schedules unless GateMeasure is explicitly selected
		t0 := time.Now()
		if err := c.EncodeRows(0, data, parity); err != nil {
			return best // malformed candidate never beats the incumbent
		}
		//rmlint:ignore env-discipline same real-CPU measurement as above
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}
