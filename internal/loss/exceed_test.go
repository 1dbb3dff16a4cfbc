package loss

import (
	"encoding/binary"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"testing"
)

// exceedSent is a 22-seq round spread over [0, 33) (every seq not a
// multiple of 3), so the draw's position-to-seq mapping is exercised.
func exceedSent() uint64 {
	var sent uint64
	for s := 0; s < 33; s++ {
		if s%3 != 0 {
			sent |= 1 << s
		}
	}
	return sent
}

// chi2Equal is the two-sample chi-squared statistic for two count vectors
// of equal exposure: each bin's counts are independent and equal in
// expectation, so (a-b)^2/(a+b) is chi-squared with one degree of freedom
// per non-empty bin.
func chi2Equal(a, b []int) (chi2 float64, df int) {
	for i := range a {
		if n := a[i] + b[i]; n > 0 {
			d := float64(a[i] - b[i])
			chi2 += d * d / float64(n)
			df++
		}
	}
	return chi2, df
}

// TestDrawExceedingMatchesPerPacketDraws pins the whole-round draw against
// what it replaces: n DrawLost calls, one per packet of the round, ORed
// per receiver. Over 400 rounds at R = 5000, p = 5 %, n = 22, t = 2 the two
// must agree, by two-sample chi-squared at the 99.9 % quantile, on the
// histogram of miss counts above t (3, 4, 5, 6, 7, 8+; which also compares
// how many receivers each enumerates) and on how often each of the 22 seqs
// is among a receiver's misses. Every enumerated receiver must be
// ascending, with missed a subset of sent and more than t misses.
func TestDrawExceedingMatchesPerPacketDraws(t *testing.T) {
	const r, p, th, rounds = 5000, 0.05, 2, 400
	sent := exceedSent()
	n := bits.OnesCount64(sent)
	var seqs []int
	for s := sent; s != 0; s &= s - 1 {
		seqs = append(seqs, bits.TrailingZeros64(s))
	}
	var hist [2][6]int
	var pos [2][]int
	pos[0], pos[1] = make([]int, n), make([]int, n)
	count := func(side int, bm uint64) {
		hist[side][min(bits.OnesCount64(bm), 8)-th-1]++
		for i, s := range seqs {
			if bm>>s&1 != 0 {
				pos[side][i]++
			}
		}
	}

	ref := NewBernoulliPopulation(r, p, rand.New(rand.NewSource(61)))
	bm := make([]uint64, r)
	for range rounds {
		for _, s := range seqs {
			for _, j := range ref.DrawLost(0) {
				bm[j] |= 1 << s
			}
		}
		for j := range bm {
			if bits.OnesCount64(bm[j]) > th {
				count(0, bm[j])
			}
			bm[j] = 0
		}
	}

	pop := NewBernoulliPopulation(r, p, rand.New(rand.NewSource(62)))
	var ids []int
	var missed []uint64
	for range rounds {
		ids, missed = pop.DrawExceeding(sent, th, ids[:0], missed[:0])
		for i, j := range ids {
			if j < 0 || j >= r || (i > 0 && j <= ids[i-1]) {
				t.Fatalf("ids not ascending in [0, %d): ... %d at %d", r, j, i)
			}
			if missed[i]&^sent != 0 || bits.OnesCount64(missed[i]) <= th {
				t.Fatalf("receiver %d: missed %#x is not a subset of sent %#x with > %d seqs", j, missed[i], sent, th)
			}
			count(1, missed[i])
		}
	}

	chi2h, dfh := chi2Equal(hist[0][:], hist[1][:])
	chi2p, dfp := chi2Equal(pos[0], pos[1])
	t.Logf("miss-count chi2 %.1f on %d df, per-seq chi2 %.1f on %d df", chi2h, dfh, chi2p, dfp)
	if dfh != 6 || chi2h > 22.46 {
		t.Errorf("miss-count histogram: chi2 = %.1f on %d df (99.9 %% quantile of 6 df: 22.46); per-packet %v, whole-round %v",
			chi2h, dfh, hist[0], hist[1])
	}
	if dfp != n || chi2p > 48.27 {
		t.Errorf("per-seq miss frequencies: chi2 = %.1f on %d df (99.9 %% quantile of 22 df: 48.27); per-packet %v, whole-round %v",
			chi2p, dfp, pos[0], pos[1])
	}
}

// TestDrawExceedingEdgeCases pins the rounds whose answer is certain: a
// threshold at or above the round size enumerates nobody, t < 0 everybody,
// p = 0 misses nothing and p = 1 everything, and appends keep what the
// caller's slices already held.
func TestDrawExceedingEdgeCases(t *testing.T) {
	const r = 40
	sent := exceedSent()
	n := bits.OnesCount64(sent)
	for _, c := range []struct {
		name       string
		p          float64
		sent       uint64
		th         int
		want       int    // receivers enumerated
		wantMissed uint64 // every one's missed seqs, unless anyMissed
		anyMissed  bool   // missed is random: only checked to be a subset of sent
	}{
		{"t=n", 0.5, sent, n, 0, 0, false},
		{"empty round", 0.5, 0, 0, 0, 0, false},
		{"empty round t<0", 0.5, 0, -1, r, 0, false},
		{"t<0", 0.5, sent, -3, r, 0, true},
		{"p=0", 0, sent, 0, 0, 0, false},
		{"p=0 t<0", 0, sent, -1, r, 0, false},
		{"p=1", 1, sent, n - 1, r, sent, false},
		{"p=1 t=n", 1, sent, n, 0, 0, false},
	} {
		pop := NewBernoulliPopulation(r, c.p, rand.New(rand.NewSource(5)))
		ids, missed := pop.DrawExceeding(c.sent, c.th, []int{-7}, []uint64{99})
		if len(ids) != 1+c.want || len(missed) != len(ids) || ids[0] != -7 || missed[0] != 99 {
			t.Errorf("%s: %d ids, %d bitmaps (prefix %v, %v), want 1 + %d", c.name, len(ids), len(missed), ids[:1], missed[:1], c.want)
			continue
		}
		for i, j := range ids[1:] {
			if j != i {
				t.Errorf("%s: receiver %d listed as %d", c.name, i, j)
			}
			if m := missed[i+1]; m&^c.sent != 0 || (!c.anyMissed && m != c.wantMissed) {
				t.Errorf("%s: receiver %d missed %#x", c.name, i, m)
			}
		}
	}
}

// TestDrawExceedingStreamPinned fences the whole-round draw's exact output
// the way TestSkipStreamsPinned fences the per-packet ones: the FNV-1a
// hash of the first 1e5 enumerated (receiver, missed) pairs under one seed,
// for the field_1e6 operating point (R = 1e6, p = 1 %, 22 seqs, t = 2), a
// rect group's t = 0 at p = 5 % over spread seqs, and a short round's
// t < 0. Every field_1e6 exact-repeat ledger metric hangs on the first.
// Also 0 allocs per draw once the caller's slices have their capacity.
func TestDrawExceedingStreamPinned(t *testing.T) {
	const n, seed = 100_000, 20260926
	for _, c := range []struct {
		name string
		r    int
		p    float64
		sent uint64
		th   int
		want uint64
	}{
		{"field_1e6", 1_000_000, 0.01, 1<<22 - 1, 2, 0x29d0154fd574c0aa},
		{"rect", 100_000, 0.05, exceedSent(), 0, 0xfa610f8c04459576},
		{"short", 10_000, 0.05, 1<<19 - 1, -1, 0x8fb6859de279c6fe},
	} {
		pop := NewBernoulliPopulation(c.r, c.p, rand.New(rand.NewSource(seed)))
		ids := make([]int, 0, c.r)
		missed := make([]uint64, 0, c.r)
		h := fnv.New64a()
		var word [16]byte
		for hashed := 0; hashed < n; {
			ids, missed = pop.DrawExceeding(c.sent, c.th, ids[:0], missed[:0])
			for i := 0; i < len(ids) && hashed < n; i++ {
				binary.LittleEndian.PutUint64(word[:8], uint64(ids[i]))
				binary.LittleEndian.PutUint64(word[8:], missed[i])
				h.Write(word[:])
				hashed++
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: first %d (receiver, missed) pairs hash to %#x, want %#x: the RNG stream moved", c.name, n, got, c.want)
		}
		if a := testing.AllocsPerRun(5, func() {
			ids, missed = pop.DrawExceeding(c.sent, c.th, ids[:0], missed[:0])
		}); a != 0 {
			t.Errorf("%s: %v allocs per DrawExceeding, want 0", c.name, a)
		}
	}
}
