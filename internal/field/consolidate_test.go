package field

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/loss"
	"rmfec/internal/packet"
	"rmfec/internal/simnet"
)

// bareField returns a Field fronting r receivers that no packet has
// reached yet, for tests that build group state by hand and call
// consolidate directly. Its population is stateful (Markov), so
// consolidation takes the per-packet path through pend; a memoryless
// population would draw the round itself and ignore pend.
func bareField(tb testing.TB, r, k, h int, exact bool) *Field {
	tb.Helper()
	return popField(tb, loss.NewMarkovPopulation(r, 0.01, 2, 100, rand.New(rand.NewSource(2))), k, h, exact)
}

// popField is bareField over the given population.
func popField(tb testing.TB, pop loss.Population, k, h int, exact bool) *Field {
	tb.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(), rand.New(rand.NewSource(1)))
	node := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	f, err := New(node, Config{
		Protocol:   core.Config{Session: 1, K: k, MaxParity: h, ShardSize: 16},
		Population: pop,
		Exact:      exact,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// pendGroup builds an unconsolidated group that saw nTx distinct seqs of a
// (k, h) block, each lost independently with probability p by each of r
// receivers and always by receiver full (pass -1 for none): one ascending
// run of packed pairs per seq, as onShard appends them.
func pendGroup(rng *rand.Rand, idx uint32, r, k, h, nTx int, p float64, full int) *fgroup {
	g := &fgroup{idx: idx, RxParams: core.RxParams{K: k, H: h}, nTx: nTx}
	for _, seq := range rng.Perm(k + h)[:nTx] {
		g.seqSeen |= uint64(1) << uint(seq)
		for id := 0; id < r; id++ {
			if id == full || rng.Float64() < p {
				g.pend = append(g.pend, int64(id)<<6|int64(seq))
			}
		}
	}
	return g
}

// sortEverything is consolidation spelled out: sort every pair, OR per
// receiver, keep those the deficit rule (popcount against the excess, or
// the rect codec's shortfall) calls deficient. consolidate must match it
// bit for bit.
func sortEverything(f *Field, g *fgroup) (ids []int, missed []uint64) {
	excess := g.nTx - f.rx.GroupK(&g.RxParams)
	if excess < 0 {
		ids = make([]int, f.popR)
		missed = make([]uint64, f.popR)
		for i := range ids {
			ids[i] = i
		}
		for _, p := range g.pend {
			missed[p>>6] |= uint64(1) << uint(p&63)
		}
		return ids, missed
	}
	pend := slices.Clone(g.pend)
	slices.Sort(pend)
	for i := 0; i < len(pend); {
		id := int(pend[i] >> 6)
		var bm uint64
		j := i
		for ; j < len(pend) && int(pend[j]>>6) == id; j++ {
			bm |= uint64(1) << uint(pend[j]&63)
		}
		i = j
		deficient := bits.OnesCount64(bm) > excess
		if g.Code != nil {
			deficient = g.Code.ShortfallBits(g.seqSeen&^bm) > 0
		}
		if deficient {
			ids = append(ids, id)
			missed = append(missed, bm)
		}
	}
	return ids, missed
}

// TestConsolidateMatchesSortEverything feeds random ascending-run pair
// sets through consolidate and through the reference and demands the same
// ids, missed, active count and high-water mark, for two groups back to
// back on one Field so that state the first leaves behind (the recycled
// pend buffer, the active count) would corrupt the second.
func TestConsolidateMatchesSortEverything(t *testing.T) {
	type tc struct {
		r, k, h, nTx int
		p            float64
		full         int
		rect, exact  bool
	}
	var cases []tc
	for _, r := range []int{1, 13, 1000} {
		p := 0.08
		if r < 100 {
			p = 0.3 // few receivers: lose enough that some end up deficient
		}
		for _, excess := range []int{-3, 0, 1, 2, 5} {
			for _, exact := range []bool{false, true} {
				cases = append(cases,
					tc{r: r, k: 20, h: 8, nTx: 20 + excess, p: p, full: -1, exact: exact},
					tc{r: r, k: 20, h: 5, nTx: 20 + excess, p: p, full: -1, exact: exact, rect: true})
			}
		}
	}
	// Bitmap ceiling: k+h = 64, every seq sent, one receiver missed all 64.
	cases = append(cases,
		tc{r: 13, k: 62, h: 2, nTx: 64, p: 0.05, full: 7},
		tc{r: 1000, k: 59, h: 5, nTx: 64, p: 0.05, full: 999, exact: true},
		tc{r: 1, k: 59, h: 5, nTx: 64, p: 0, full: 0})

	for ci, c := range cases {
		name := fmt.Sprintf("r=%d/k=%d/h=%d/nTx=%d/rect=%t/exact=%t", c.r, c.k, c.h, c.nTx, c.rect, c.exact)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			f := bareField(t, c.r, c.k, c.h, c.exact)
			wantActive, wantMax := 0, 0
			for idx := uint32(0); idx < 2; idx++ {
				g := pendGroup(rng, idx, c.r, c.k, c.h, c.nTx, c.p, c.full)
				rect := &packet.Packet{Type: packet.TypeData, K: uint16(c.k), Codec: packet.CodecRect, CodecArg: uint8(c.h)}
				if c.rect && !f.rx.Admit(&g.RxParams, rect, c.k, c.h) {
					t.Fatal("rect codec refused")
				}
				wantIDs, wantMissed := sortEverything(f, g)
				wantActive += len(wantIDs)
				wantMax = max(wantMax, wantActive)

				f.consolidate(g)

				// A group nobody is deficient in is done and its arrays released.
				if g.done != (len(wantIDs) == 0) {
					t.Fatalf("group %d: done = %t with %d deficient receivers", idx, g.done, len(wantIDs))
				}
				if !slices.Equal(g.ids, wantIDs) {
					t.Fatalf("group %d: ids differ: got %d receivers %v, want %d %v",
						idx, len(g.ids), head(g.ids), len(wantIDs), head(wantIDs))
				}
				if !slices.Equal(g.missed, wantMissed) {
					t.Fatalf("group %d: missed bitmaps differ", idx)
				}
				if f.active != wantActive || f.stats.MaxActive != wantMax {
					t.Fatalf("group %d: active %d (max %d), want %d (max %d)",
						idx, f.active, f.stats.MaxActive, wantActive, wantMax)
				}
				if c.exact && !g.done && (len(g.resetAt) != len(g.ids) || len(g.retry) != len(g.ids) || len(g.cancel) != len(g.ids)) {
					t.Fatalf("group %d: Exact timer arrays not parallel to ids", idx)
				}
			}
		})
	}
}

func head(s []int) []int { return s[:min(len(s), 8)] }

// millionPend draws the pairs of one R = 1e6, p = 1 % group's 22-packet
// data round from the sparse Bernoulli kernel: ~220 000 pairs.
func millionPend() []int64 {
	const r, nTx = 1_000_000, 22
	pop := loss.NewBernoulliPopulation(r, 0.01, rand.New(rand.NewSource(7)))
	var pend []int64
	for seq := 0; seq < nTx; seq++ {
		for _, id := range pop.DrawLost(0) {
			pend = append(pend, int64(id)<<6|int64(seq))
		}
	}
	return pend
}

// TestConsolidateSteadyStateAllocs pins that, once the pend free list
// exists, consolidating a group allocates nothing
// but the growth of its ids/missed arrays — shown by giving those their
// final capacity up front and demanding zero — on both paths: the
// per-packet pairs of a stateful population, and the count draw of a
// memoryless one (which ignores pend and keeps its receivers in bins).
func TestConsolidateSteadyStateAllocs(t *testing.T) {
	const k, nTx, runs = 20, 22, 5
	pend := millionPend()
	for _, c := range []struct {
		name string
		f    *Field
	}{
		{"pend", bareField(t, 1_000_000, k, 24, false)},
		{"group", popField(t, loss.NewBernoulliPopulation(1_000_000, 0.01, rand.New(rand.NewSource(7))), k, 24, false)},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := c.f
			newGroup := func(idx uint32) *fgroup {
				return &fgroup{
					idx: idx, RxParams: core.RxParams{K: k, H: 24}, nTx: nTx, seqSeen: 1<<nTx - 1,
					pend: slices.Clone(pend),
					ids:  make([]int, 0, 4096), missed: make([]uint64, 0, 4096),
				}
			}
			f.consolidate(newGroup(0)) // warm
			f.freePend = slices.Grow(f.freePend, runs+2)
			groups := make([]*fgroup, runs+1) // AllocsPerRun makes one warm-up call
			for i := range groups {
				groups[i] = newGroup(uint32(i + 1))
			}
			next := 0
			if a := testing.AllocsPerRun(runs, func() {
				f.consolidate(groups[next])
				next++
			}); a != 0 {
				t.Fatalf("steady-state consolidate: %v allocs/op, want 0", a)
			}
			if n := groups[0].nDef; n == 0 || n > 4096 {
				t.Fatalf("%d deficient receivers: the pin needs 0 < n <= 4096 to mean anything", n)
			}
			if groups[0].hist != (c.name == "group") {
				t.Fatalf("hist = %t on the %s path", groups[0].hist, c.name)
			}
		})
	}
}

// BenchmarkFieldConsolidate times one group's consolidation at the
// field_1e6 operating point (R = 1e6, p = 1 %, 22 transmissions). On the
// per-packet path (stateful populations, Exact mode) every pair goes
// through the sort; excess=2 is k = 20 with two proactive parities, where
// few receivers stay deficient, and excess=0 is k = 22, where every
// touched receiver does. round is what field_1e6 runs: a memoryless
// population draws the whole round (t = 2) and pend is never filled; the
// per-packet path also paid ~220 000 DrawLost losses before consolidating.
func BenchmarkFieldConsolidate(b *testing.B) {
	const nTx = 22
	pend := millionPend()
	for _, excess := range []int{2, 0} {
		b.Run(fmt.Sprintf("excess=%d", excess), func(b *testing.B) {
			k := nTx - excess
			f := bareField(b, 1_000_000, k, 24, false)
			buf := make([]int64, len(pend))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(buf, pend)
				g := &fgroup{idx: uint32(i), RxParams: core.RxParams{K: k, H: 24}, nTx: nTx, seqSeen: 1<<nTx - 1, pend: buf}
				f.freePend = f.freePend[:0]
				b.StartTimer()
				f.consolidate(g)
			}
		})
	}
	b.Run("round", func(b *testing.B) {
		f := popField(b, loss.NewBernoulliPopulation(1_000_000, 0.01, rand.New(rand.NewSource(7))), nTx-2, 24, false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.consolidate(&fgroup{idx: uint32(i), RxParams: core.RxParams{K: nTx - 2, H: 24}, nTx: nTx, seqSeen: 1<<nTx - 1})
		}
	})
}
