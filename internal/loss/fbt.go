package loss

import (
	"fmt"
	"math"
	"math/rand"
)

// FBT models the paper's shared-loss topology (Section 4.1): a full binary
// tree of height d with the source at the root and the R = 2^d receivers at
// the leaves. Every node of the tree — source, interior routers and leaves,
// d+1 of them on each root-to-leaf path — drops a given packet
// independently with probability PNode, and a drop anywhere on the path
// loses the packet for the whole subtree below. PNode is derived from the
// desired per-receiver loss probability p as
//
//	p = 1 - (1-PNode)^(d+1).
//
// There is no temporal correlation: every DrawLost is independent, so the dt
// argument is ignored.
type FBT struct {
	Depth int     // tree height d; R = 2^d receivers
	PNode float64 // per-node loss probability
	r     int
	nodes int // 2^(d+1) - 1
	rng   *rand.Rand
	// logq caches ln(1-PNode) for the geometric skip sampler.
	logq float64
	// DrawLost scratch, reused across draws.
	iv  []leafInterval
	idx []int
}

// leafInterval is a half-open run [lo, hi) of lost leaf indices.
type leafInterval struct{ lo, hi int }

// NewFBT returns a shared-loss tree of height depth whose leaves each see
// packet loss probability p.
func NewFBT(depth int, p float64, rng *rand.Rand) *FBT {
	if depth < 0 || depth > 30 {
		panic(fmt.Sprintf("loss: FBT depth = %d", depth))
	}
	if p < 0 || p >= 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("loss: FBT p = %g", p))
	}
	pnode := 1 - math.Pow(1-p, 1/float64(depth+1))
	t := &FBT{
		Depth: depth,
		PNode: pnode,
		r:     1 << depth,
		nodes: 1<<(depth+1) - 1,
		rng:   rng,
	}
	if pnode > 0 {
		t.logq = math.Log1p(-pnode)
	}
	return t
}

// R implements Population.
func (t *FBT) R() int { return t.r }

// Reset implements Population (the tree is memoryless).
func (t *FBT) Reset() {}

// DrawLost implements Population: one multicast transmission through the
// tree. Failed nodes are enumerated with geometric skip-sampling (expected
// cost O(nodes*PNode) instead of one random number per node), each failure
// losing the leaf interval under that node; overlapping intervals are
// merged before the leaf indices are emitted in ascending order.
func (t *FBT) DrawLost(_ float64) []int {
	t.idx = t.idx[:0]
	if t.PNode == 0 {
		return t.idx
	}
	t.iv = t.iv[:0]
	for idx := t.nextFailure(-1); idx < t.nodes; idx = t.nextFailure(idx) {
		lo, hi := t.leafSpan(idx)
		t.iv = append(t.iv, leafInterval{lo, hi})
	}
	// Failed nodes arrive in heap order, not leaf order: insertion-sort the
	// (few) intervals by lo, then emit with overlap merging.
	for i := 1; i < len(t.iv); i++ {
		v := t.iv[i]
		j := i - 1
		for j >= 0 && t.iv[j].lo > v.lo {
			t.iv[j+1] = t.iv[j]
			j--
		}
		t.iv[j+1] = v
	}
	next := 0 // first leaf not yet emitted
	for _, v := range t.iv {
		lo := v.lo
		if lo < next {
			lo = next
		}
		for i := lo; i < v.hi; i++ {
			t.idx = append(t.idx, i)
		}
		if v.hi > next {
			next = v.hi
		}
	}
	return t.idx
}

// nextFailure returns the smallest failed node index > prev, or t.nodes if
// none: a geometric jump with success probability PNode.
func (t *FBT) nextFailure(prev int) int {
	return geoNext(prev, t.nodes, t.PNode, t.logq, t.rng)
}

// leafSpan returns the half-open leaf range [lo, hi) under node idx (heap
// order, root 0). Level l = floor(log2(idx+1)); the subtree of a level-l
// node covers 2^(Depth-l) consecutive leaves.
func (t *FBT) leafSpan(idx int) (lo, hi int) {
	l := 0
	for (1<<(l+1))-1 <= idx {
		l++
	}
	pos := idx - ((1 << l) - 1)
	width := 1 << (t.Depth - l)
	return pos * width, (pos + 1) * width
}
