package rawengine

import (
	"testing"
	"unsafe"
)

// TestObjectShapes pins the raw engine's object layout, which mirrors the
// direct engine's: a small object is a one-word header and its fields inline
// (40 bytes), a large one the header and two slices. Every field round-trips
// a store, and an index beyond the shape panics.
func TestObjectShapes(t *testing.T) {
	if got := unsafe.Sizeof(smallObj{}); got != 40 {
		t.Errorf("small object is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(largeObj{}); got != 56 {
		t.Errorf("large object header is %d bytes, want 56", got)
	}
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	e := New()
	tx := e.Begin()
	for _, shape := range [][2]int{{0, 0}, {1, 1}, {2, 2}, {1, 2}, {3, 0}, {0, 3}} {
		nw, nr := shape[0], shape[1]
		h, other := e.NewObj(nw, nr), e.NewObj(0, 0)
		for i := range nw {
			tx.StoreWord(h, i, uint64(i+7))
		}
		for i := range nr {
			tx.StoreRef(h, i, other)
		}
		for i := range nw {
			if got := tx.LoadWord(h, i); got != uint64(i+7) {
				t.Errorf("(%d, %d): word %d = %d, want %d", nw, nr, i, got, i+7)
			}
		}
		for i := range nr {
			if got := tx.LoadRef(h, i); got != other {
				t.Errorf("(%d, %d): ref %d did not round-trip", nw, nr, i)
			}
		}
		if !panics(func() { tx.LoadWord(h, nw) }) || !panics(func() { tx.StoreWord(h, nw, 1) }) {
			t.Errorf("(%d, %d): word index %d does not panic", nw, nr, nw)
		}
		if !panics(func() { tx.LoadRef(h, nr) }) || !panics(func() { tx.StoreRef(h, nr, nil) }) {
			t.Errorf("(%d, %d): ref index %d does not panic", nw, nr, nr)
		}
	}
}
