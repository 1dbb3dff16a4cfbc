package loss

import (
	"fmt"
	"math"
	"math/rand"
)

// Tree is a generalised shared-loss multicast topology: an arbitrary tree
// with the source at the root, receivers at the leaves, and an independent
// per-packet loss probability at every node. A loss anywhere on the path
// loses the packet for the whole subtree — the paper's Section-4.1 model
// with the full-binary-tree restriction lifted, so star topologies (pure
// independent loss), chains (fully shared loss), and measured multicast
// trees can all be expressed.
type Tree struct {
	parent []int     // parent[i] for node i; parent[0] = -1 (root/source)
	pnode  []float64 // per-node loss probability
	leaves []int     // node ids of the receivers, in Population order
	order  []int     // topological order (parents before children)
	lostN  []bool    // scratch: per-node loss of the current draw
	rng    *rand.Rand
	scan   denseScan
}

// TreeNode describes one node when building a Tree.
type TreeNode struct {
	Parent int     // index of the parent node; -1 for the root
	PNode  float64 // per-packet loss probability at this node
}

// NewTree builds a shared-loss tree from an explicit node list. Node 0
// must be the root (Parent == -1); every other node's Parent must have a
// smaller index (parents before children). Nodes without children are the
// receivers, ordered by node index.
func NewTree(nodes []TreeNode, rng *rand.Rand) (*Tree, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("loss: empty tree")
	}
	if nodes[0].Parent != -1 {
		return nil, fmt.Errorf("loss: node 0 must be the root (Parent == -1)")
	}
	t := &Tree{
		parent: make([]int, len(nodes)),
		pnode:  make([]float64, len(nodes)),
		lostN:  make([]bool, len(nodes)),
		rng:    rng,
	}
	hasChild := make([]bool, len(nodes))
	for i, n := range nodes {
		if i > 0 {
			if n.Parent < 0 || n.Parent >= i {
				return nil, fmt.Errorf("loss: node %d has parent %d; parents must precede children", i, n.Parent)
			}
			hasChild[n.Parent] = true
		}
		if n.PNode < 0 || n.PNode > 1 || math.IsNaN(n.PNode) {
			return nil, fmt.Errorf("loss: node %d has p = %g", i, n.PNode)
		}
		t.parent[i] = n.Parent
		t.pnode[i] = n.PNode
		t.order = append(t.order, i)
	}
	for i := range nodes {
		if !hasChild[i] && i != 0 {
			t.leaves = append(t.leaves, i)
		}
	}
	if len(t.leaves) == 0 {
		// Degenerate single-node tree: the root is the only receiver.
		t.leaves = []int{0}
	}
	return t, nil
}

// NewUniformTree builds a balanced tree of the given branching degree and
// height with one loss probability for every node (height+1 nodes on each
// root-to-leaf path), giving each of the degree^height receivers the
// end-to-end loss probability p, like NewFBT but with arbitrary degree.
func NewUniformTree(degree, height int, p float64, rng *rand.Rand) (*Tree, error) {
	if degree < 1 || height < 0 || height > 20 {
		return nil, fmt.Errorf("loss: uniform tree degree %d height %d", degree, height)
	}
	if p < 0 || p >= 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("loss: uniform tree p = %g", p)
	}
	pnode := 1 - math.Pow(1-p, 1/float64(height+1))
	nodes := []TreeNode{{Parent: -1, PNode: pnode}}
	levelStart := 0
	levelCount := 1
	for l := 0; l < height; l++ {
		nextStart := len(nodes)
		for parent := levelStart; parent < levelStart+levelCount; parent++ {
			for c := 0; c < degree; c++ {
				nodes = append(nodes, TreeNode{Parent: parent, PNode: pnode})
			}
		}
		levelStart = nextStart
		levelCount *= degree
	}
	return NewTree(nodes, rng)
}

// R implements Population.
func (t *Tree) R() int { return len(t.leaves) }

// Reset implements Population (memoryless).
func (t *Tree) Reset() {}

// DrawLost implements Population by a dense Draw and a scan.
func (t *Tree) DrawLost(dt float64) []int { return t.scan.drawLost(t, dt) }

// Draw implements Population: sample per-node losses, propagate down the
// tree in topological order, and report the leaves.
func (t *Tree) Draw(_ float64, lost []bool) {
	if len(lost) != len(t.leaves) {
		panic(fmt.Sprintf("loss: Draw buffer %d != R %d", len(lost), len(t.leaves)))
	}
	for _, i := range t.order {
		l := t.pnode[i] > 0 && t.rng.Float64() < t.pnode[i]
		if !l && t.parent[i] >= 0 {
			l = t.lostN[t.parent[i]]
		}
		t.lostN[i] = l
	}
	for j, leaf := range t.leaves {
		lost[j] = t.lostN[leaf]
	}
}
