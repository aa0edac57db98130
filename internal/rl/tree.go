package rl

import (
	"fmt"
	"math/bits"

	"schedinspector/internal/nn"
)

// Every sum an update takes over the batch — the advantage moments, each
// policy pass's gradients and loss sums, each value pass's — is taken over
// one fixed binary tree whose leaves are the batch's trajectories:
//
//	node(i, i+1)  = trajectory i's own sum, its rows added in row order
//	node(lo, hi)  = node(lo, mid) ⊕ node(mid, hi), left operand first,
//	                mid = lo + the largest power of two below hi-lo
//
// where ⊕ adds element-wise, except on the advantage moments, which it
// merges pairwise (combineMoments). The shape depends on the batch size
// alone, so whoever holds leaves [a, b) can fold every complete subtree
// inside that range, hand the results to whoever holds the rest, and the
// root comes out bit for bit the same however the leaves were dealt —
// which is what lets distributed workers exchange gradients instead of
// trajectories (internal/dist) and still match the single-process update.

// Phase names which of an update's sums a round reduces. Zero is left to
// the caller: core gathers the epoch's per-trajectory statistics through
// the same Exchange before the update starts.
type Phase uint8

const (
	PhaseMoments Phase = iota + 1 // advantage count, mean and M2
	PhasePolicy                   // policy gradients, then the KL, entropy and loss sums
	PhaseValue                    // critic gradients, then the loss sum
)

// Round identifies one reduction of one update, so that processes trading
// nodes can tell they are in the same one.
type Round struct {
	Phase Phase
	Iter  int // pass number within the phase
}

// Node is the sum of leaves [Lo, Hi) of the tree.
type Node struct {
	Lo, Hi int
	Vec    []float64
}

// Exchange is the communication half of an update's all-reduce. A process
// holding the trajectories of a contiguous shard hands over own — the
// fewest complete subtrees that cover the shard, folded from its leaves —
// and gets back the nodes of every process for the same round, in index
// order and together tiling the whole batch. The update folds those to the
// root itself, so the arithmetic never leaves this package. Vectors on
// either side are scratch: valid until the next call, and the update may
// overwrite the ones it receives.
type Exchange func(r Round, own []Node) ([]Node, error)

// split returns how many leaves the left child of a node of n > 1 leaves
// holds: the largest power of two below n.
func split(n int) int { return 1 << (bits.Len(uint(n-1)) - 1) }

// combine folds the right sibling's sum into the left's.
func combine(ph Phase, left, right []float64) {
	if ph == PhaseMoments {
		combineMoments(left, right)
		return
	}
	right = right[:len(left)]
	for i, v := range right {
		left[i] += v
	}
}

// combineMoments merges the count, mean and sum of squared deviations
// (n, mean, M2) of two adjacent runs of values into a (Chan et al.'s
// pairwise update). A trajectory without steps is an empty run and leaves
// the other side untouched.
func combineMoments(a, b []float64) {
	na, nb := a[0], b[0]
	if nb == 0 {
		return
	}
	if na == 0 {
		copy(a, b[:3])
		return
	}
	n := na + nb
	d := b[1] - a[1]
	a[0] = n
	a[1] += d * nb / n
	a[2] += b[2] + d*d*na*nb/n
}

// fold reduces the leading nodes, which must tile [lo, hi) with complete
// subtrees in index order, to node(lo, hi); every ⊕ lands in its left
// operand's vector. It returns the sum and the nodes it did not consume.
func fold(ph Phase, width, lo, hi int, nodes []Node) ([]float64, []Node, error) {
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("rl: reduction has no node for trajectories [%d, %d)", lo, hi)
	}
	nd := nodes[0]
	if nd.Lo == lo && nd.Hi == hi {
		if len(nd.Vec) != width {
			return nil, nil, fmt.Errorf("rl: node [%d, %d) carries %d values, the round reduces %d", lo, hi, len(nd.Vec), width)
		}
		return nd.Vec, nodes[1:], nil
	}
	if nd.Lo != lo || nd.Hi > hi || hi-lo < 2 {
		return nil, nil, fmt.Errorf("rl: node [%d, %d) is not a subtree of the reduction at [%d, %d)", nd.Lo, nd.Hi, lo, hi)
	}
	mid := lo + split(hi-lo)
	left, nodes, err := fold(ph, width, lo, mid, nodes)
	if err != nil {
		return nil, nil, err
	}
	right, nodes, err := fold(ph, width, mid, hi, nodes)
	if err != nil {
		return nil, nil, err
	}
	combine(ph, left, right)
	return left, nodes, nil
}

// partial is the storage of one node's sum while it is being folded: the
// flat vector a round reduces, and its head viewed as either network's
// gradients — what the batch kernels accumulate into and Adam steps from.
type partial struct {
	vec      []float64
	pol, val *nn.Grads
}

// gradsOver lays m's gradient shapes over the head of buf, layer by layer,
// weights before biases.
func gradsOver(m *nn.MLP, buf []float64) *nn.Grads {
	g := &nn.Grads{W: make([][]float64, len(m.W)), B: make([][]float64, len(m.B))}
	for l := range m.W {
		nw, nb := len(m.W[l]), len(m.B[l])
		g.W[l], g.B[l], buf = buf[:nw:nw], buf[nw:nw+nb:nw+nb], buf[nw+nb:]
	}
	return g
}

// slot returns partial k of *ps, allocating up to it on first use. A
// partial is as wide as the widest round, so one set serves all three
// phases.
func (p *PPO) slot(ps *[]*partial, k int) *partial {
	for len(*ps) <= k {
		vec := make([]float64, max(p.nPol+3, p.nVal+1))
		*ps = append(*ps, &partial{vec: vec, pol: gradsOver(p.agent.Policy, vec), val: gradsOver(p.agent.Value, vec)})
	}
	return (*ps)[k]
}

// width is the length of the vector a phase reduces.
func (p *PPO) width(ph Phase) int {
	switch ph {
	case PhasePolicy:
		return p.nPol + 3
	case PhaseValue:
		return p.nVal + 1
	}
	return 3
}

// eval computes node(lo, hi) from this process's leaves into dst. A left
// child is folded in place and a right child into the stack slot of its
// depth below the starting node, so a node of n leaves borrows at most
// log2(n)+1 slots however many leaves it spans.
func (p *PPO) eval(ph Phase, lo, hi int, dst *partial, level int) {
	if hi-lo == 1 {
		p.leaf(ph, lo, dst)
		return
	}
	mid := lo + split(hi-lo)
	p.eval(ph, lo, mid, dst, level)
	right := p.slot(&p.stack, level)
	p.eval(ph, mid, hi, right, level+1)
	w := p.width(ph)
	combine(ph, dst.vec[:w], right.vec[:w])
}

// evalCover appends to p.own the largest complete subtrees of
// node(nlo, nhi) that lie inside the local shard, each folded from its
// leaves into a cover slot of its own.
func (p *PPO) evalCover(ph Phase, nlo, nhi int) {
	lo, hi := p.lo, p.hi
	if nhi <= lo || hi <= nlo {
		return
	}
	if lo <= nlo && nhi <= hi {
		dst := p.slot(&p.cover, len(p.own))
		p.eval(ph, nlo, nhi, dst, 0)
		p.own = append(p.own, Node{Lo: nlo, Hi: nhi, Vec: dst.vec[:p.width(ph)]})
		return
	}
	mid := nlo + split(nhi-nlo)
	p.evalCover(ph, nlo, mid)
	p.evalCover(ph, mid, nhi)
}

// reduce runs one round over a batch of the given size: the local shard's
// cover is folded from its leaves, traded through ex for everyone else's,
// and the whole tiling folded to the root, which is returned in cover
// slot 0 — where the Grads views the optimizers step from point. With a
// nil ex the shard is the batch and its cover is the root.
func (p *PPO) reduce(r Round, batch int, ex Exchange) ([]float64, error) {
	p.own = p.own[:0]
	p.evalCover(r.Phase, 0, batch)
	if ex == nil {
		return p.own[0].Vec, nil
	}
	all, err := ex(r, p.own)
	if err != nil {
		return nil, err
	}
	sum, rest, err := fold(r.Phase, p.width(r.Phase), 0, batch, all)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("rl: reduction over %d trajectories was handed %d nodes too many", batch, len(rest))
	}
	root := p.slot(&p.cover, 0).vec[:len(sum)]
	copy(root, sum)
	return root, nil
}
