package enginetest

import (
	"testing"

	"memtx/internal/engine"
)

// Shape of the object the undo cases write: more than two words and two
// refs, so that on the direct engine it is a large object, whose undo log is
// deduplicated by marks of its own rather than by the duplicate-log filter.
const undoWords, undoRefs = 4, 3

// testUndoLog runs the undo-logging cases against one object of every field
// kind. Each field is logged and written twice in one owner, so an engine
// that drops duplicate log entries keeps only the first. An abort must
// restore every field all the same, and a later owner's abort must restore
// what the previous owner committed, not what it found before that.
func testUndoLog(t *testing.T, e engine.Engine) {
	t.Run("WrittenTwice", func(t *testing.T) { testUndoWrittenTwice(t, e) })
	t.Run("NextOwner", func(t *testing.T) { testUndoNextOwner(t, e) })
}

// undoObj is the object under test and the targets its refs point at, each
// target's word 0 naming it, so that a ref can be read back as a number.
type undoObj struct {
	h       engine.Handle
	targets []engine.Handle // targets[k] holds k+1; a nil ref reads 0
}

func newUndoObj(t *testing.T, e engine.Engine) undoObj {
	t.Helper()
	u := undoObj{h: e.NewObj(undoWords, undoRefs)}
	for k := 0; k < 3; k++ {
		u.targets = append(u.targets, e.NewObj(1, 0))
	}
	if err := engine.Run(e, func(tx engine.Txn) error {
		for k, g := range u.targets {
			write(tx, g, 0, uint64(k+1))
		}
		return nil
	}); err != nil {
		t.Fatalf("set up the ref targets: %v", err)
	}
	return u
}

// writeAll logs and stores every field of u.h: word i gets base+i and ref i
// the target named ref. Even fields log the word before the ref of the same
// index, odd ones the ref first, so that a word and a ref sharing a log key
// loses an entry whichever comes second.
func (u undoObj) writeAll(tx engine.Txn, base uint64, ref int) {
	tx.OpenForUpdate(u.h)
	word := func(i int) {
		tx.LogForUndoWord(u.h, i)
		tx.StoreWord(u.h, i, base+uint64(i))
	}
	refField := func(i int) {
		tx.LogForUndoRef(u.h, i)
		tx.StoreRef(u.h, i, u.targets[ref-1])
	}
	for i := 0; i < max(undoWords, undoRefs); i++ {
		if i%2 == 0 {
			if i < undoWords {
				word(i)
			}
			if i < undoRefs {
				refField(i)
			}
		} else {
			if i < undoRefs {
				refField(i)
			}
			if i < undoWords {
				word(i)
			}
		}
	}
}

// check reads every field of u.h and fails unless word i is base+i (0 when
// base is 0, the fresh object) and every ref names target ref (0: nil).
func (u undoObj) check(t *testing.T, e engine.Engine, what string, base uint64, ref int) {
	t.Helper()
	err := engine.RunReadOnly(e, func(tx engine.Txn) error {
		tx.OpenForRead(u.h)
		for i := 0; i < undoWords; i++ {
			want := uint64(0)
			if base != 0 {
				want = base + uint64(i)
			}
			if got := tx.LoadWord(u.h, i); got != want {
				t.Errorf("%s: word %d = %d, want %d", what, i, got, want)
			}
		}
		for i := 0; i < undoRefs; i++ {
			got := 0
			if r := tx.LoadRef(u.h, i); r != nil {
				tx.OpenForRead(r)
				got = int(tx.LoadWord(r, 0))
			}
			if got != ref {
				t.Errorf("%s: ref %d names target %d, want %d", what, i, got, ref)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: read back: %v", what, err)
	}
}

// testUndoWrittenTwice: one owner writes every field twice and aborts; the
// fresh object's zero words and nil refs come back.
func testUndoWrittenTwice(t *testing.T, e engine.Engine) {
	u := newUndoObj(t, e)
	tx := e.Begin()
	u.writeAll(tx, 100, 1)
	u.writeAll(tx, 200, 2)
	tx.Abort()
	u.check(t, e, "after an abort of two writes", 0, 0)
}

// testUndoNextOwner: one owner commits a write of every field, and the next
// writes every field twice and aborts; the committed values come back.
func testUndoNextOwner(t *testing.T, e engine.Engine) {
	u := newUndoObj(t, e)
	if err := engine.Run(e, func(tx engine.Txn) error {
		u.writeAll(tx, 100, 1)
		u.writeAll(tx, 150, 3)
		return nil
	}); err != nil {
		t.Fatalf("first owner: %v", err)
	}
	u.check(t, e, "after the first owner's commit", 150, 3)
	tx := e.Begin()
	u.writeAll(tx, 200, 2)
	u.writeAll(tx, 300, 1)
	tx.Abort()
	u.check(t, e, "after the next owner's abort", 150, 3)
}
