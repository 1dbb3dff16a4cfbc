package hostperf

import (
	"testing"

	"rmfec/internal/model"
)

func TestMeasureCoding(t *testing.T) {
	ce, cd, err := MeasureCoding(2048)
	if err != nil {
		t.Fatal(err)
	}
	// Plausibility: a modern core encodes a 2 KiB parity contribution in
	// well under a millisecond per data packet and well over a
	// nanosecond.
	if ce <= 1e-3 || ce > 1e3 {
		t.Errorf("ce = %g µs out of plausible range", ce)
	}
	if cd <= 1e-3 || cd > 1e3 {
		t.Errorf("cd = %g µs out of plausible range", cd)
	}
	// This machine must beat the 1997 DECstation's 700/720 µs constants.
	if ce >= model.PaperTiming.Ce {
		t.Errorf("ce = %g µs, slower than a DECstation 5000/200?", ce)
	}
	if cd >= model.PaperTiming.Cd {
		t.Errorf("cd = %g µs, slower than a DECstation 5000/200?", cd)
	}
}

func TestMeasureCodingValidation(t *testing.T) {
	if _, _, err := MeasureCoding(0); err == nil {
		t.Error("packetSize 0 accepted")
	}
}

func TestCoderErrors(t *testing.T) {
	for _, c := range []struct{ k, h, lose int }{
		{0, 1, 1},     // no data shards
		{200, 100, 3}, // k + h > 255
		{10, 4, 0},    // nothing lost
		{10, 4, 5},    // more lost than parities
		{3, 4, 4},     // more lost than data shards
	} {
		if _, _, err := Coder(c.k, c.h, c.lose, 64); err == nil {
			t.Errorf("Coder(%d, %d, %d) accepted", c.k, c.h, c.lose)
		}
	}
}

// TestCoderOpsAllocateNothing pins what Fig 1 and MeasureCoding time: the
// steady-state coder, whose encode and decode allocate nothing.
func TestCoderOpsAllocateNothing(t *testing.T) {
	enc, dec, err := coderOps(20, 4, 3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for name, op := range map[string]func() error{"encode": enc, "decode": dec} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() { _ = op() }); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
		}
	}
}

func TestMeasureUDP(t *testing.T) {
	send, recv, err := MeasureUDP(2048)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	if send <= 0 || send > 1e4 {
		t.Errorf("send = %g µs", send)
	}
	if recv <= 0 || recv > 1e4 {
		t.Errorf("recv = %g µs", recv)
	}
	if _, _, err := MeasureUDP(0); err == nil {
		t.Error("size 0 accepted")
	}
}

func TestTimingFeedsModels(t *testing.T) {
	tm, err := Timing()
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	// The measured constants must produce sane Fig 17/18 curves: positive
	// rates, NP-pre >= NP, rates decreasing with R.
	prev := 1e18
	for _, r := range []int{1, 1000, 1000000} {
		np := model.NPRates(20, r, 0.01, tm, false)
		npPre := model.NPRates(20, r, 0.01, tm, true)
		n2 := model.N2Rates(r, 0.01, tm)
		for name, v := range map[string]float64{
			"NP send": np.Send, "NP recv": np.Recv,
			"NP-pre throughput": npPre.Throughput, "N2 throughput": n2.Throughput,
		} {
			if v <= 0 {
				t.Errorf("R=%d: %s = %g", r, name, v)
			}
		}
		if npPre.Throughput < np.Throughput-1e-12 {
			t.Errorf("R=%d: pre-encoding reduced throughput", r)
		}
		if np.Send > prev+1e-9 {
			t.Errorf("R=%d: NP sender rate increased with R", r)
		}
		prev = np.Send
	}
}
