package ltree

import (
	"math/rand"
	"sort"
	"testing"

	"colsort/internal/record"
)

// item is one entry of a sorted leaf stream: an inline key and a second
// field only the tie function sees, standing for the record bytes past the
// prefix.
type item struct {
	key, rest uint64
}

// TestTreeMergesStreams merges n sorted streams through the tree (the
// merge's use: Replay the winner with its stream's next key, MaxKey once
// drained) and checks the order against a reference sort by (key, rest,
// leaf). Keys come from a tiny domain that includes MaxKey, so prefix ties
// and genuine-MaxKey-versus-drained ties are both common.
func TestTreeMergesStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		streams := make([][]item, n)
		type tagged struct {
			item
			leaf int32
		}
		var want []tagged
		for i := range streams {
			m := rng.Intn(40)
			for j := 0; j < m; j++ {
				it := item{key: uint64(rng.Intn(4)), rest: uint64(rng.Intn(3))}
				if it.key == 3 {
					it.key = record.MaxKey
				}
				streams[i] = append(streams[i], it)
				want = append(want, tagged{it, int32(i)})
			}
			sort.Slice(streams[i], func(a, b int) bool {
				x, y := streams[i][a], streams[i][b]
				return x.key < y.key || x.key == y.key && x.rest < y.rest
			})
		}
		sort.SliceStable(want, func(a, b int) bool {
			x, y := want[a], want[b]
			if x.key != y.key {
				return x.key < y.key
			}
			if x.rest != y.rest {
				return x.rest < y.rest
			}
			return x.leaf < y.leaf
		})

		pos := make([]int, n)
		front := func(i int32) uint64 {
			if pos[i] == len(streams[i]) {
				return record.MaxKey
			}
			return streams[i][pos[i]].key
		}
		tr := New(n, func(a, b int32) bool {
			da, db := pos[a] == len(streams[a]), pos[b] == len(streams[b])
			if da || db {
				return !da
			}
			ra, rb := streams[a][pos[a]].rest, streams[b][pos[b]].rest
			if ra != rb {
				return ra < rb
			}
			return a < b
		})
		tr.Build(front)
		for k, w := range want {
			id, key := tr.Winner()
			if pos[id] == len(streams[id]) {
				t.Fatalf("n=%d: tree ran dry after %d of %d items", n, k, len(want))
			}
			got := streams[id][pos[id]]
			if id != w.leaf || got != w.item || key != w.key {
				t.Fatalf("n=%d, item %d: got leaf %d %+v (tree key %d), want leaf %d %+v", n, k, id, got, key, w.leaf, w.item)
			}
			pos[id]++
			tr.Replay(id, front(id))
		}
		if id, _ := tr.Winner(); pos[id] != len(streams[id]) {
			t.Fatalf("n=%d: leaf %d still live after every item was emitted", n, id)
		}
	}
}
