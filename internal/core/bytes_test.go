package core

import (
	"strings"
	"testing"
	"unsafe"
)

// TestByteRecordLayout pins the third object shape: a byte record is the
// 32-byte header, an 8-byte length and the payload; its shape bits never
// leak into its id; every field access on it panics; and LoadBytes panics on
// an object that is not a record.
func TestByteRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(bytesObj{}); got != 40 {
		t.Errorf("record header and length are %d bytes, want 40", got)
	}
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	e := New()
	tx := e.Begin()
	defer tx.Abort()
	first := tx.Alloc(0, 0).(*Obj)
	for i, n := range []int{0, 1, 23, 24, 25, 100, 5000} {
		want := strings.Repeat("k", n)
		h := tx.AllocBytes([]byte(want[:n/2]), []byte(want[n/2:]))
		o := h.(*Obj)
		if o.ID() != first.ID()+uint64(i)+1 {
			t.Errorf("%d-byte record: id %d, want %d", n, o.ID(), first.ID()+uint64(i)+1)
		}
		if got := tx.LoadBytes(h); got != want {
			t.Errorf("%d-byte record reads %d bytes", n, len(got))
		}
		for name, f := range map[string]func(){
			"LoadWord":  func() { tx.LoadWord(h, 0) },
			"StoreWord": func() { tx.StoreWord(h, 0, 1) },
			"LoadRef":   func() { tx.LoadRef(h, 0) },
			"StoreRef":  func() { tx.StoreRef(h, 0, nil) },
			"NumWords":  func() { o.NumWords() },
			"NumRefs":   func() { o.NumRefs() },
		} {
			if !panics(f) {
				t.Errorf("%d-byte record: %s does not panic", n, name)
			}
		}
	}
	for _, shape := range [][2]int{{0, 0}, {2, 2}, {3, 0}} {
		h := tx.Alloc(shape[0], shape[1])
		if !panics(func() { tx.LoadBytes(h) }) {
			t.Errorf("LoadBytes on a (%d, %d) object does not panic", shape[0], shape[1])
		}
	}
}

// TestAllocBytesIsOneAllocation pins that a record is one allocation, its
// header and payload together.
func TestAllocBytesIsOneAllocation(t *testing.T) {
	disableGC(t)
	e := New()
	tx := e.Begin()
	defer tx.Abort()
	key, val := []byte("key"), []byte(strings.Repeat("v", 100))
	if avg := testing.AllocsPerRun(100, func() { tx.AllocBytes(key, val) }); avg != 1 {
		t.Errorf("AllocBytes makes %.2f allocations, want 1", avg)
	}
}
