package enginetest

import (
	"testing"

	"memtx/internal/engine"
)

// ShardedStats is the statistics view of a store built from independent
// per-shard transaction managers (the kv store). The conformance check
// below pins the accounting contract the aggregated view must satisfy.
type ShardedStats interface {
	// Shards reports the number of independent transaction managers.
	Shards() int
	// ShardStats returns shard i's engine statistics.
	ShardStats(i int) engine.Stats
	// Stats returns the store-wide aggregate over all shards.
	Stats() engine.Stats
}

// RunShardedStats drives a workload against a sharded store and verifies,
// at quiescence, the invariants that make the aggregated statistics
// trustworthy:
//
//   - conservation: every started transaction is resolved — per shard and
//     in aggregate, Starts == Commits + Aborts;
//   - aggregation: the store-wide Stats equals the counter-by-counter sum
//     of the per-shard Stats (no shard is dropped or double-counted);
//   - monotonicity: no counter moved backwards relative to the pre-drive
//     snapshot.
//
// drive must run to completion with no transactions left in flight and
// must commit at least one transaction on at least two shards, so the
// aggregation check is not vacuous.
func RunShardedStats(t *testing.T, s ShardedStats, drive func()) {
	t.Helper()
	if s.Shards() < 2 {
		t.Fatalf("store has %d shard(s); the aggregation check needs at least 2", s.Shards())
	}
	before := s.Stats()

	drive()

	var sum engine.Stats
	busy := 0
	for i := 0; i < s.Shards(); i++ {
		st := s.ShardStats(i)
		if st.Starts != st.Commits+st.Aborts {
			t.Errorf("shard %d: Starts (%d) != Commits (%d) + Aborts (%d) at quiescence — a transaction leaked",
				i, st.Starts, st.Commits, st.Aborts)
		}
		if st.Commits > 0 {
			busy++
		}
		sum = sum.Add(st)
	}
	if busy < 2 {
		t.Errorf("drive() committed on %d shard(s); need >= 2 for a meaningful aggregation check", busy)
	}

	agg := s.Stats()
	if agg != sum {
		t.Errorf("aggregate Stats() != sum of per-shard stats:\n  agg = %+v\n  sum = %+v", agg, sum)
	}
	if agg.Starts != agg.Commits+agg.Aborts {
		t.Errorf("aggregate: Starts (%d) != Commits (%d) + Aborts (%d)", agg.Starts, agg.Commits, agg.Aborts)
	}

	// Monotone vs the pre-drive snapshot, field by field via Sub underflow:
	// any counter that went backwards shows up as an enormous unsigned delta.
	d := agg.Sub(before)
	const backwards = 1 << 62
	for name, v := range map[string]uint64{
		"Starts": d.Starts, "Commits": d.Commits, "Aborts": d.Aborts,
		"OpenForRead": d.OpenForRead, "OpenForUpdate": d.OpenForUpdate,
		"UndoLogged": d.UndoLogged, "ReadLogEntries": d.ReadLogEntries,
		"FilterHits": d.FilterHits, "LocalSkips": d.LocalSkips,
		"Compactions": d.Compactions, "ReadLogDropped": d.ReadLogDropped,
		"CMWaits": d.CMWaits,
	} {
		if v >= backwards {
			t.Errorf("counter %s went backwards across drive()", name)
		}
	}
}
