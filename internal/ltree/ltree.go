// Package ltree is the loser tree that runform's replacement selection and
// merge's k-way merge run on. Each node carries its leaf's 8-byte key
// inline, so a match is one uint64 compare; only equal keys reach the
// caller's tie function, which compares full records and settles a genuine
// record.MaxKey against a leaf parked at MaxKey (an exhausted run, a
// deferred slot). The tree minimises; descending callers complement keys.
package ltree

import "colsort/internal/record"

type node struct {
	key uint64
	id  int32
}

// Tree is a loser tree over n leaves numbered 0..n-1: node[0] holds the
// overall winner, node[i≥1] the loser of the match at internal node i,
// whose children are 2i and 2i+1; leaf j sits at position k+j, k being n
// padded to a power of two. Padding leaves hold MaxKey and lose every tie.
type Tree struct {
	node []node
	k, n int
	tie  func(a, b int32) bool
}

// New returns a tree over n ≥ 1 leaves. tie(a, b) reports whether leaf a
// beats leaf b when both hold the same key; it must be a strict order.
func New(n int, tie func(a, b int32) bool) *Tree {
	k := 1
	for k < n {
		k *= 2
	}
	return &Tree{node: make([]node, k), k: k, n: n, tie: tie}
}

// Build plays the whole tournament afresh from key(i) for every leaf i, in
// O(n) matches.
func (t *Tree) Build(key func(i int32) uint64) {
	t.node[0] = t.play(1, key)
}

func (t *Tree) play(i int, key func(int32) uint64) node {
	if i >= t.k {
		id := int32(i - t.k)
		if int(id) >= t.n {
			return node{key: record.MaxKey, id: id}
		}
		return node{key: key(id), id: id}
	}
	w, l := t.play(2*i, key), t.play(2*i+1, key)
	if l.key < w.key || l.key == w.key && t.tieWins(l.id, w.id) {
		w, l = l, w
	}
	t.node[i] = l
	return w
}

func (t *Tree) tieWins(a, b int32) bool {
	if int(a) >= t.n || int(b) >= t.n {
		return int(b) >= t.n && int(a) < t.n
	}
	return t.tie(a, b)
}

// Winner returns the winning leaf and the key it holds.
func (t *Tree) Winner() (int32, uint64) {
	return t.node[0].id, t.node[0].key
}

// Replay gives the current winner id a new key and replays its path to the
// root. The swap is branchless (the loser stored unconditionally, the
// winner picked by conditional moves): match outcomes on random keys are
// unpredictable, and a mispredicted branch would cost more than the compare.
func (t *Tree) Replay(id int32, key uint64) {
	nodes := t.node
	wk, wid := key, id
	for i := (int(id) + t.k) >> 1; i > 0; i >>= 1 {
		o := nodes[i]
		oWins := o.key < wk
		if o.key == wk {
			oWins = t.tieWins(o.id, wid)
		}
		lk, lid := o.key, o.id
		if oWins {
			lk, lid = wk, wid
			wk, wid = o.key, o.id
		}
		nodes[i] = node{key: lk, id: lid}
	}
	nodes[0] = node{key: wk, id: wid}
}
