package engine

import (
	"fmt"
	"reflect"
	"testing"
)

// fillUint64 walks a struct recursively and sets every uint64 leaf (including
// array elements) to v, counting the leaves it set.
func fillUint64(val reflect.Value, v uint64) int {
	switch val.Kind() {
	case reflect.Uint64:
		val.SetUint(v)
		return 1
	case reflect.Struct:
		n := 0
		for i := 0; i < val.NumField(); i++ {
			n += fillUint64(val.Field(i), v)
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < val.Len(); i++ {
			n += fillUint64(val.Index(i), v)
		}
		return n
	default:
		return 0
	}
}

// checkUint64 verifies every uint64 leaf equals want, reporting the path of
// any mismatch.
func checkUint64(t *testing.T, val reflect.Value, path string, want uint64) {
	t.Helper()
	switch val.Kind() {
	case reflect.Uint64:
		if got := val.Uint(); got != want {
			t.Errorf("%s = %d, want %d (field not handled?)", path, got, want)
		}
	case reflect.Struct:
		for i := 0; i < val.NumField(); i++ {
			checkUint64(t, val.Field(i), path+"."+val.Type().Field(i).Name, want)
		}
	case reflect.Array:
		for i := 0; i < val.Len(); i++ {
			checkUint64(t, val.Index(i), fmt.Sprintf("%s[%d]", path, i), want)
		}
	}
}

// drift fills two values of the same struct type with the distinct
// constants 5 and 2, applies op, and asserts every uint64 leaf of the result
// is want (3 for a difference, 7 for a sum). A counter field added to the
// struct but forgotten in op keeps 0 and trips the check.
func drift[T any](t *testing.T, op func(a, b T) T, want uint64) {
	t.Helper()
	var a, b T
	na := fillUint64(reflect.ValueOf(&a).Elem(), 5)
	nb := fillUint64(reflect.ValueOf(&b).Elem(), 2)
	if na == 0 {
		t.Fatalf("%T has no uint64 leaves — drift guard is vacuous", a)
	}
	if na != nb {
		t.Fatalf("leaf count mismatch: %d vs %d", na, nb)
	}
	d := op(a, b)
	checkUint64(t, reflect.ValueOf(d), reflect.TypeOf(d).Name(), want)
}

// TestStatsSubCoversEveryField guards against counter drift: adding a field
// to Stats without updating Stats.Sub fails here, not silently in a report.
func TestStatsSubCoversEveryField(t *testing.T) {
	drift(t, func(a, b Stats) Stats { return a.Sub(b) }, 3)
}

// TestStatsAddCoversEveryField does the same for Stats.Add, the merge a
// sharded store sums its shards' snapshots with.
func TestStatsAddCoversEveryField(t *testing.T) {
	drift(t, func(a, b Stats) Stats { return a.Add(b) }, 7)
}

// TestMetricsSnapshotSubCoversEveryField does the same for the abort-cause
// snapshot's array.
func TestMetricsSnapshotSubCoversEveryField(t *testing.T) {
	drift(t, func(a, b MetricsSnapshot) MetricsSnapshot { return a.Sub(b) }, 3)
}
