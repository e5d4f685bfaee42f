package executor

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hawq/internal/types"
)

// keyEqual reports whether two key cells are the same key:
// types.Compare(a, b) == 0 within a hashable class, NaN the same key as
// NaN, false across classes (the planner lets no such pair be a hash key;
// a DOUBLE against an exact numeric is a join predicate, not a key) —
// and, as only a grouping gets to ask, NULL the same key as NULL.
func keyEqual(a, b *types.Datum) bool {
	switch a.K {
	case types.KindNull:
		return b.K == types.KindNull
	case types.KindInt32, types.KindInt64, types.KindDecimal:
		switch b.K {
		case types.KindInt32, types.KindInt64:
			if a.K != types.KindDecimal {
				return a.I == b.I
			}
		case types.KindDecimal:
			if a.K == types.KindDecimal && a.Scale == b.Scale {
				return a.I == b.I
			}
		default:
			return false
		}
		return types.Compare(*a, *b) == 0 // a decimal against another scale, exactly
	case types.KindFloat64:
		return b.K == types.KindFloat64 && (a.F == b.F || a.F != a.F && b.F != b.F)
	case types.KindDate, types.KindBool:
		return b.K == a.K && a.I == b.I
	case types.KindString, types.KindBytes:
		return (b.K == types.KindString || b.K == types.KindBytes) && a.S == b.S
	}
	return false
}

// keyTable is the executor's one hash table: rows copied once into a
// rowStore, the key hash of each (types.HashKeys' P, the hash placement
// reduces to a segment), and a power-of-two directory of chain heads,
// indexed by the low bits of types.Mix64(P), at least a slot a row, with
// one link per row. Links are row
// numbers plus one, zero ending a chain.
//
// A hash join adds its build rows and seals the table when the last one
// is in: the directory is sized exactly once, and a chain runs in
// insertion order, so a probe row meets its matches in the order the
// build side delivered them. A grouping — the aggregate's groups, the
// values its DISTINCT aggregates have met, DISTINCT's rows — finds a key
// or inserts it: the rows are the keys, all their columns, each once; a
// row's number is the dense id of its group; and seal runs again, over
// the stored hashes, whenever the rows outnumber the slots.
//
// The rows are Datum cells, not typed columns: the probe hands
// joinProbe whole build rows to concatenate and to evaluate the join
// predicate over, and batches of Datum rows are what operators exchange.
type keyTable struct {
	rows   rowStore
	hashes []uint64
	head   []int32
	next   []int32
}

// len returns the number of rows.
func (t *keyTable) len() int { return len(t.hashes) }

// add appends a row whose keys hash to h, unlinked until seal. A link is
// an int32: the table refuses the row that would not fit one.
func (t *keyTable) add(h uint64, row types.Row) error {
	if len(t.hashes) == math.MaxInt32-1 {
		return fmt.Errorf("executor: hash table exceeds %d rows", math.MaxInt32-1)
	}
	if len(t.hashes) == cap(t.hashes) {
		// Doubled, from what the first chunk holds: append's own growth of
		// a quarter at a time would allocate five times the final array.
		t.hashes = slices.Grow(t.hashes, max(rowStoreBase, len(t.hashes)))
	}
	t.rows.add(row)
	t.hashes = append(t.hashes, h)
	return nil
}

// seal builds the directory over the rows added, with room in the links
// for as many rows as it has slots. Linking from the last row to the
// first leaves every chain in insertion order.
func (t *keyTable) seal() {
	n := len(t.hashes)
	if n == 0 {
		return
	}
	t.head = make([]int32, max(rowStoreBase, 1<<bits.Len(uint(n-1))))
	t.next = make([]int32, n, len(t.head))
	mask := uint64(len(t.head) - 1)
	for i := n - 1; i >= 0; i-- {
		slot := types.Mix64(t.hashes[i]) & mask
		t.next[i] = t.head[slot]
		t.head[slot] = int32(i + 1)
	}
}

// insert adds a key that find did not find, linked in at once, and
// returns its number. The key's strings are copied: a grouping keeps its
// keys for as long as it runs, and a string cut out of a page would keep
// the page.
func (t *keyTable) insert(h uint64, key types.Row) (int32, error) {
	if err := t.add(h, key); err != nil {
		return -1, err
	}
	n := len(t.hashes)
	kept := t.rows.row(n - 1)
	for i := range kept {
		kept[i] = kept[i].Detach()
	}
	if n > len(t.head) {
		t.seal() // a row for every slot: the directory doubles
	} else {
		slot := types.Mix64(h) & uint64(len(t.head)-1)
		t.next = append(t.next, t.head[slot])
		t.head[slot] = int32(n)
	}
	return int32(n - 1), nil
}

// sameKey reports whether the key cells of row equal probe's.
func sameKey(probe, row types.Row, probeKeys, keys []int) bool {
	for j, c := range probeKeys {
		if !keyEqual(&probe[c], &row[keys[j]]) {
			return false
		}
	}
	return true
}

// find returns the number of the row that is key, whose columns cols hash
// to h, or -1.
func (t *keyTable) find(h uint64, key types.Row, cols []int) int32 {
	for l := t.first(h); l != 0; l = t.next[l-1] {
		if t.hashes[l-1] == h && sameKey(key, t.rows.row(int(l-1)), cols, cols) {
			return l - 1
		}
	}
	return -1
}

// admit reports whether key is new to the table, and then inserts it,
// charged to mem's hard grant: the set it joins has no spill path.
func (t *keyTable) admit(mem *memBudget, key types.Row, cols []int) (bool, error) {
	h, _ := types.HashKeys(key, cols)
	if t.find(h, key, cols) >= 0 {
		return false, nil
	}
	if err := mem.growHard(rowMem(key)); err != nil {
		return false, err
	}
	_, err := t.insert(h, key)
	return err == nil, err
}

// first returns the link of the first row whose key hash is h — its
// number plus one — or 0 when there is none: the place lookup starts
// from, found before the probe's key cells need to exist.
func (t *keyTable) first(h uint64) int32 {
	if len(t.head) == 0 {
		return 0
	}
	l := t.head[types.Mix64(h)&uint64(len(t.head)-1)]
	for l != 0 && t.hashes[l-1] != h {
		l = t.next[l-1]
	}
	return l
}

// lookup appends to out every row from link l on (first's; 0 is none)
// whose key hash is h and whose key cells equal probe's, in insertion
// order. The rows are views into the table, valid until reset.
func (t *keyTable) lookup(l int32, h uint64, probe types.Row, probeKeys, keys []int, out []types.Row) []types.Row {
	for ; l != 0; l = t.next[l-1] {
		if t.hashes[l-1] != h {
			continue
		}
		if row := t.rows.row(int(l - 1)); sameKey(probe, row, probeKeys, keys) {
			out = append(out, row)
		}
	}
	return out
}

// reset empties the table and lets go of its memory.
func (t *keyTable) reset() { *t = keyTable{} }
