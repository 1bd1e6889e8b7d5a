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

// TestByteRecords pins the raw engine's byte record: as large as a small
// object, a copy of its parts, and a field access on it panics.
func TestByteRecords(t *testing.T) {
	if got := unsafe.Sizeof(bytesObj{}); got != unsafe.Sizeof(smallObj{}) {
		t.Errorf("byte record is %d bytes, want a small object's %d", got, unsafe.Sizeof(smallObj{}))
	}
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	tx := New().Begin()
	src := []byte("value")
	h := tx.AllocBytes([]byte("key="), src)
	copy(src, "XXXXX")
	if got := tx.LoadBytes(h); got != "key=value" {
		t.Errorf("record reads %q, want %q", got, "key=value")
	}
	if !panics(func() { tx.LoadWord(h, 0) }) || !panics(func() { tx.StoreWord(h, 0, 1) }) ||
		!panics(func() { tx.LoadRef(h, 0) }) || !panics(func() { tx.StoreRef(h, 0, nil) }) {
		t.Error("a field access on a byte record does not panic")
	}
	if !panics(func() { tx.LoadBytes(New().NewObj(0, 0)) }) {
		t.Error("LoadBytes on a plain object does not panic")
	}
}
