package harness

import (
	"fmt"

	"memtx/internal/core"
	"memtx/internal/locksync"
	"memtx/internal/txds"
)

// Mix describes a lookup/update operation mix.
type Mix struct {
	Name    string
	ReadPct int // percentage of lookups; the rest split between insert/remove
}

// DefaultMixes are the paper-style workload mixes.
var DefaultMixes = []Mix{
	{"100%read", 100},
	{"90/10", 90},
	{"50/50", 50},
}

// TreeMixes are the mixes of the E4 BST tables; the E4 list and skip-list
// tables run only the first.
var TreeMixes = []Mix{{"90/10", 90}, {"50/50", 50}}

// Cell is one column of an E3/E4 throughput table. New builds the column's
// structure at the experiment's scale (quick or full), prefills it with
// half the key space drawn from the table's fixed seed, and returns one
// operation of mix over the key space.
type Cell struct {
	Name string
	New  func(mix Mix, quick bool) Op
}

// set is the face every E3/E4 structure shares.
type set struct{ lookup, insert, remove func(k uint64) bool }

// cell prefills s with keys/2 draws from [0, keys) and returns one
// operation of mix: a lookup with probability ReadPct, else an insert or a
// remove, evenly.
func (s set) cell(keys int, seed uint64, mix Mix) Op {
	rng := NewRand(seed)
	for i := 0; i < keys/2; i++ {
		s.insert(uint64(rng.Intn(keys)))
	}
	return func(rng *Rand) {
		k := uint64(rng.Intn(keys))
		switch r := rng.Intn(100); {
		case r < mix.ReadPct:
			s.lookup(k)
		case r < mix.ReadPct+(100-mix.ReadPct)/2:
			s.insert(k)
		default:
			s.remove(k)
		}
	}
}

func stmMap(h *txds.HashMap) set {
	return set{
		func(k uint64) bool { _, ok := h.GetAtomic(k); return ok },
		func(k uint64) bool { return h.PutAtomic(k, k) },
		h.RemoveAtomic,
	}
}

func lockMap(m locksync.Map) set {
	return set{
		func(k uint64) bool { _, ok := m.Get(k); return ok },
		func(k uint64) bool { return m.Put(k, k) },
		m.Remove,
	}
}

func stmBST(t *txds.BST) set {
	return set{t.ContainsAtomic, func(k uint64) bool { return t.InsertAtomic(k, k) }, t.RemoveAtomic}
}

func lockSet(s locksync.Set) set { return set{s.Contains, s.Insert, s.Remove} }

// mapScale returns E3's key space and bucket count.
func mapScale(quick bool) (keys, buckets int) {
	if quick {
		return 1024, 128
	}
	return 16384, 1024
}

// treeKeys returns the key space of the E4 BST and skip-list tables;
// listKeys that of the E4 sorted-list table.
func treeKeys(quick bool) int {
	if quick {
		return 2048
	}
	return 16384
}

func listKeys(quick bool) int {
	if quick {
		return 128
	}
	return 1024
}

// MapCells are E3's columns: the STM hash map against a coarse-locked and
// a lock-striped one.
var MapCells = []Cell{
	{"stm", func(mix Mix, quick bool) Op {
		keys, buckets := mapScale(quick)
		return stmMap(txds.NewHashMap(core.New(), buckets)).cell(keys, 1, mix)
	}},
	{"coarse", func(mix Mix, quick bool) Op {
		keys, buckets := mapScale(quick)
		return lockMap(locksync.NewCoarseMap(buckets)).cell(keys, 1, mix)
	}},
	{"striped", func(mix Mix, quick bool) Op {
		keys, buckets := mapScale(quick)
		return lockMap(locksync.NewStripedMap(buckets, 64)).cell(keys, 1, mix)
	}},
}

// TreeCells are the columns of the E4 BST tables.
var TreeCells = []Cell{
	{"stm", func(mix Mix, quick bool) Op {
		return stmBST(txds.NewBST(core.New())).cell(treeKeys(quick), 2, mix)
	}},
	{"coarse", func(mix Mix, quick bool) Op {
		return lockSet(locksync.NewCoarseBST()).cell(treeKeys(quick), 2, mix)
	}},
}

// ListCells are the columns of the E4 sorted-list table.
var ListCells = []Cell{
	{"stm", func(mix Mix, quick bool) Op {
		l := txds.NewSortedList(core.New())
		return set{l.ContainsAtomic, l.InsertAtomic, l.RemoveAtomic}.cell(listKeys(quick), 3, mix)
	}},
	{"hoh", func(mix Mix, quick bool) Op {
		return lockSet(locksync.NewHoHList()).cell(listKeys(quick), 3, mix)
	}},
	{"coarse", func(mix Mix, quick bool) Op {
		return lockSet(locksync.NewCoarseList()).cell(listKeys(quick), 3, mix)
	}},
}

// SkipCells are the columns of the E4 skip-list table: the STM skip list
// against the STM and the coarse-locked BST.
var SkipCells = []Cell{
	{"stm-skip", func(mix Mix, quick bool) Op {
		s := txds.NewSkipList(core.New())
		return set{s.ContainsAtomic, s.InsertAtomic, s.RemoveAtomic}.cell(treeKeys(quick), 4, mix)
	}},
	{"stm-bst", func(mix Mix, quick bool) Op {
		return stmBST(txds.NewBST(core.New())).cell(treeKeys(quick), 4, mix)
	}},
	{"coarse-bst", func(mix Mix, quick bool) Op {
		return lockSet(locksync.NewCoarseBST()).cell(treeKeys(quick), 4, mix)
	}},
}

// scaling returns the operations per thread (full or, when quick, small)
// and the top of the thread sweep for the E3/E4 tables.
func scaling(quick bool, full, small int) (opsPerThread, maxThreads int) {
	maxThreads = MaxThreads()
	if !quick {
		return full, maxThreads
	}
	return small, min(maxThreads, 4)
}

// sweep fills one throughput row per thread count: each column's cell is
// built fresh and measured with opsPerThread operations per worker.
func sweep(t *Table, cells []Cell, mix Mix, quick bool, opsPerThread, maxThreads int, ratio bool) {
	for _, threads := range ThreadCounts(maxThreads) {
		row := []string{fmt.Sprint(threads)}
		var vals []float64
		for _, c := range cells {
			op := c.New(mix, quick)
			ops := Throughput(threads, opsPerThread, func(_ int, rng *Rand) { op(rng) })
			vals = append(vals, ops)
			row = append(row, Ops(ops))
		}
		if ratio {
			row = append(row, fmt.Sprintf("%.2fx", vals[0]/vals[1]))
		}
		t.AddRow(row...)
	}
}

// E3 measures hash-map throughput versus thread count for the atomic (STM)
// version against coarse and striped locks — the paper's scalability figure:
// the STM tracks the fine-grained lock and overtakes the coarse lock beyond
// a few threads.
func E3(quick bool) ([]*Table, error) {
	keys, buckets := mapScale(quick)
	opsPerThread, maxThreads := scaling(quick, 200_000, 4_000)
	var tables []*Table
	for _, mix := range DefaultMixes {
		t := &Table{
			ID:     "E3/" + mix.Name,
			Title:  fmt.Sprintf("hash map throughput, %s mix (%d keys, %d buckets)", mix.Name, keys, buckets),
			Note:   "stm ≈ striped locks, both >> coarse beyond ~2 threads; coarse flat or falling",
			Header: []string{"threads", "stm", "coarse", "striped", "stm/coarse"},
		}
		sweep(t, MapCells, mix, quick, opsPerThread, maxThreads, true)
		tables = append(tables, t)
	}
	return tables, nil
}

// E4 is the same comparison on ordered structures: the BST against a coarse
// lock, and the sorted list against hand-over-hand fine-grained locking.
func E4(quick bool) ([]*Table, error) {
	opsPerThread, maxThreads := scaling(quick, 100_000, 3_000)
	listOps, _ := scaling(quick, 20_000, 1_000)
	var tables []*Table
	for _, mix := range TreeMixes {
		t := &Table{
			ID:     "E4/bst/" + mix.Name,
			Title:  fmt.Sprintf("BST throughput, %s mix (%d keys)", mix.Name, treeKeys(quick)),
			Note:   "stm scales with threads; coarse lock flat; stm wins beyond ~2-4 threads",
			Header: []string{"threads", "stm", "coarse", "stm/coarse"},
		}
		sweep(t, TreeCells, mix, quick, opsPerThread, maxThreads, true)
		tables = append(tables, t)
	}

	mix := TreeMixes[0]
	lt := &Table{
		ID:     "E4/list",
		Title:  fmt.Sprintf("sorted list throughput, %s mix (%d keys)", mix.Name, listKeys(quick)),
		Note:   "hand-over-hand locking degrades with chain length; stm competitive",
		Header: []string{"threads", "stm", "hoh", "coarse"},
	}
	sweep(lt, ListCells, mix, quick, listOps, maxThreads, false)

	st := &Table{
		ID:     "E4/skip",
		Title:  fmt.Sprintf("skip list throughput, %s mix (%d keys)", mix.Name, treeKeys(quick)),
		Note:   "log-time searches keep stm within a small factor of the coarse-locked BST",
		Header: []string{"threads", "stm-skip", "stm-bst", "coarse-bst"},
	}
	sweep(st, SkipCells, mix, quick, opsPerThread, maxThreads, false)
	return append(tables, lt, st), nil
}
