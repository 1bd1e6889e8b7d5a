package wstm_test

import (
	"testing"

	"memtx/internal/engine"
	"memtx/internal/enginetest"
	"memtx/internal/wstm"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, func() engine.Engine { return wstm.New() })
}

func TestConformanceSmallStripeTable(t *testing.T) {
	// A tiny stripe table forces false conflicts through hash collisions;
	// the engine must stay correct, only slower.
	enginetest.Run(t, func() engine.Engine { return wstm.New(wstm.WithStripes(64)) })
}

func TestReadTooNewAborts(t *testing.T) {
	e := wstm.New()
	h := e.NewObj(1, 0)

	r := e.Begin()
	// Another transaction commits, advancing the clock past r's read version.
	if err := engine.Run(e, func(tx engine.Txn) error {
		tx.OpenForUpdate(h)
		tx.StoreWord(h, 0, 1)
		return nil
	}); err != nil {
		t.Fatalf("writer: %v", err)
	}

	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("expected Retry panic reading a too-new stripe")
		}
		if _, ok := rec.(*engine.Retry); !ok {
			t.Fatalf("expected *engine.Retry, got %v", rec)
		}
		r.Abort()
	}()
	r.OpenForRead(h)
	_ = r.LoadWord(h, 0)
}

func TestBufferedWriteReadBack(t *testing.T) {
	e := wstm.New()
	h := e.NewObj(2, 0)
	err := engine.Run(e, func(tx engine.Txn) error {
		tx.OpenForUpdate(h)
		tx.StoreWord(h, 0, 5)
		// A read of our own buffered write must observe it.
		tx.OpenForRead(h)
		if got := tx.LoadWord(h, 0); got != 5 {
			t.Errorf("read-own-write = %d, want 5", got)
		}
		tx.StoreWord(h, 0, 6) // overwrite in the buffer
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var got uint64
	_ = engine.RunReadOnly(e, func(tx engine.Txn) error {
		tx.OpenForRead(h)
		got = tx.LoadWord(h, 0)
		return nil
	})
	if got != 6 {
		t.Fatalf("committed value = %d, want 6 (last buffered write)", got)
	}
}

func TestAbortDiscardsBuffer(t *testing.T) {
	e := wstm.New()
	h := e.NewObj(1, 0)
	tx := e.Begin()
	tx.OpenForUpdate(h)
	tx.StoreWord(h, 0, 42)
	tx.Abort()

	var got uint64
	_ = engine.RunReadOnly(e, func(tx engine.Txn) error {
		tx.OpenForRead(h)
		got = tx.LoadWord(h, 0)
		return nil
	})
	if got != 0 {
		t.Fatalf("value after abort = %d, want 0 (in-place memory untouched)", got)
	}
}
