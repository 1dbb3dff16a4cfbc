package core

// Codec-gate modes (Config.CodecGate). The gate decides whether a
// non-default codec a ladder rung requests is actually admitted for an
// era: a codec earns its rung only by encoding a parity with less work
// than the incumbent Reed-Solomon code at the same working point.
const (
	// GateMeasure (the default) admits the candidate by gateAdmit's cost
	// rule.
	GateMeasure = 0
	// GateForce admits every well-formed candidate unconditionally.
	GateForce = 1
	// GateOff rejects every candidate, pinning the session to RS.
	GateOff = 2
)

// gateAdmit reports whether candidate, an interleaved XOR code with d
// parity classes (the rect codec: the one non-RS codec), should replace
// the RS incumbent at k data shards. A rect parity XORs the ceil(k/d)
// shards of its class where an RS parity multiply-adds all k, and both
// run the same gf256 vector kernel (an XOR is a multiply-add by 1), so
// the shard passes per parity decide: the verdict is a function of the
// working point alone, the same on every host and in every run.
func gateAdmit(candidate Codec, k int) bool {
	_, d := candidate.ID()
	return (k+int(d)-1)/int(d) < k
}
