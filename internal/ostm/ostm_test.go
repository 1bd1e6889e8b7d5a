package ostm_test

import (
	"testing"

	"memtx/internal/engine"
	"memtx/internal/enginetest"
	"memtx/internal/ostm"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, func() engine.Engine { return ostm.New() })
}

func TestShadowIsolation(t *testing.T) {
	// Writes buffered in a shadow must be invisible to other transactions
	// until commit.
	e := ostm.New()
	h := e.NewObj(1, 0)

	w := e.Begin()
	w.OpenForUpdate(h)
	w.StoreWord(h, 0, 42)

	var observed uint64
	err := engine.RunReadOnly(e, func(tx engine.Txn) error {
		tx.OpenForRead(h)
		observed = tx.LoadWord(h, 0)
		return nil
	})
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if observed != 0 {
		t.Fatalf("reader observed uncommitted shadow value %d", observed)
	}

	if err := w.Commit(); err != nil {
		t.Fatalf("writer Commit: %v", err)
	}
	_ = engine.RunReadOnly(e, func(tx engine.Txn) error {
		tx.OpenForRead(h)
		observed = tx.LoadWord(h, 0)
		return nil
	})
	if observed != 42 {
		t.Fatalf("value after commit = %d, want 42", observed)
	}
}

func TestStoreWithoutOpenPanics(t *testing.T) {
	e := ostm.New()
	h := e.NewObj(1, 0)
	tx := e.Begin()
	defer tx.Abort()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from StoreWord without OpenForUpdate")
		}
	}()
	tx.StoreWord(h, 0, 1)
}

func TestWholeObjectConflict(t *testing.T) {
	// Object granularity: updates to *different* fields of the same object
	// by concurrent transactions still conflict.
	e := ostm.New()
	h := e.NewObj(2, 0)

	t1 := e.Begin()
	t1.OpenForUpdate(h)
	t1.StoreWord(h, 0, 1)

	if err := engine.Run(e, func(tx engine.Txn) error {
		tx.OpenForUpdate(h)
		tx.StoreWord(h, 1, 2)
		return nil
	}); err != nil {
		t.Fatalf("t2: %v", err)
	}

	if err := t1.Commit(); err != engine.ErrConflict {
		t.Fatalf("t1.Commit = %v, want ErrConflict", err)
	}
}
