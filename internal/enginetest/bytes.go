package enginetest

import (
	"errors"
	"strings"
	"testing"

	"memtx/internal/engine"
)

// The byte-record cases pin engine.Txn's AllocBytes/LoadBytes contract: a
// record holds a copy of its parts, is published by a reference store like
// any object, and is read with no open and no read-log entry. Nothing but
// a reference load guards the read, so the cases also check that an aborted
// publisher's record never reaches a committed reader.

// testByteRecords runs the byte-record cases against one engine.
func testByteRecords(t *testing.T, e engine.Engine) {
	t.Run("RoundTrip", func(t *testing.T) { testBytesRoundTrip(t, e) })
	t.Run("NoReadBarrier", func(t *testing.T) { testBytesNoReadBarrier(t, e) })
	t.Run("AbortedPublisher", func(t *testing.T) { testBytesAbortedPublisher(t, e) })
	t.Run("CopiesParts", func(t *testing.T) { testBytesCopiesParts(t, e) })
	t.Run("FieldAccessPanics", func(t *testing.T) { testBytesFieldAccessPanics(t, e) })
}

// publishBytes allocates a record of parts and stores it into ref 0 of
// holder, in one committed transaction.
func publishBytes(t *testing.T, e engine.Engine, holder engine.Handle, parts ...[]byte) {
	t.Helper()
	if err := engine.Run(e, func(tx engine.Txn) error {
		r := tx.AllocBytes(parts...)
		tx.OpenForUpdate(holder)
		tx.LogForUndoRef(holder, 0)
		tx.StoreRef(holder, 0, r)
		return nil
	}); err != nil {
		t.Fatalf("publish: %v", err)
	}
}

// readBytes reads the record ref 0 of holder points at, in its own
// read-only transaction; a nil ref reads as ok=false.
func readBytes(t *testing.T, e engine.Engine, holder engine.Handle) (s string, ok bool) {
	t.Helper()
	if err := engine.RunReadOnly(e, func(tx engine.Txn) error {
		tx.OpenForRead(holder)
		r := tx.LoadRef(holder, 0)
		s, ok = "", r != nil
		if ok {
			s = tx.LoadBytes(r)
		}
		return nil
	}); err != nil {
		t.Fatalf("read: %v", err)
	}
	return s, ok
}

func testBytesRoundTrip(t *testing.T, e engine.Engine) {
	big := strings.Repeat("0123456789abcdef", 4096) // 64 KiB
	for _, c := range []struct {
		name  string
		parts [][]byte
		want  string
	}{
		{"empty", nil, ""},
		{"empty-parts", [][]byte{nil, {}}, ""},
		{"one-byte", [][]byte{[]byte("x")}, "x"},
		{"three-parts", [][]byte{{3}, []byte("key"), []byte("a value of 100 bytes or so")}, "\x03keya value of 100 bytes or so"},
		{"past-a-line", [][]byte{[]byte(strings.Repeat("y", 200))}, strings.Repeat("y", 200)},
		{"large", [][]byte{[]byte(big[:1000]), []byte(big[1000:])}, big},
	} {
		holder := e.NewObj(0, 1)
		publishBytes(t, e, holder, c.parts...)
		got, ok := readBytes(t, e, holder)
		if !ok || got != c.want {
			t.Errorf("%s: read back %d bytes (ok=%v), want %d bytes equal to the parts", c.name, len(got), ok, len(c.want))
		}
	}
}

// testBytesNoReadBarrier checks that LoadBytes adds nothing to the counters
// that measure read barriers: a transaction that loads a record three times
// counts exactly what one that only reaches it counts.
func testBytesNoReadBarrier(t *testing.T, e engine.Engine) {
	holder := e.NewObj(0, 1)
	publishBytes(t, e, holder, []byte("immutable"))
	reach := func(loads int) engine.Stats {
		before := e.Stats()
		if err := engine.RunReadOnly(e, func(tx engine.Txn) error {
			tx.OpenForRead(holder)
			r := tx.LoadRef(holder, 0)
			for i := 0; i < loads; i++ {
				if got := tx.LoadBytes(r); got != "immutable" {
					t.Errorf("LoadBytes = %q, want %q", got, "immutable")
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("read: %v", err)
		}
		return e.Stats().Sub(before)
	}
	base, loaded := reach(0), reach(3)
	if loaded.OpenForRead != base.OpenForRead || loaded.ReadLogEntries != base.ReadLogEntries {
		t.Errorf("three LoadBytes moved OpenForRead %d -> %d and ReadLogEntries %d -> %d, want both unchanged",
			base.OpenForRead, loaded.OpenForRead, base.ReadLogEntries, loaded.ReadLogEntries)
	}
}

// testBytesAbortedPublisher overlaps a reader with a publisher that stores a
// new record and then aborts. Whatever the reader saw mid-flight, if it
// commits it must have read the committed record, and afterwards every
// reader sees that record.
func testBytesAbortedPublisher(t *testing.T, e engine.Engine) {
	holder := e.NewObj(0, 1)
	publishBytes(t, e, holder, []byte("old"))

	w := e.Begin()
	w.OpenForUpdate(holder)
	w.LogForUndoRef(holder, 0)
	w.StoreRef(holder, 0, w.AllocBytes([]byte("new")))

	r := e.BeginReadOnly()
	seen, ok := func() (s string, ok bool) {
		defer func() {
			if rec := recover(); rec != nil {
				if _, isRetry := rec.(*engine.Retry); !isRetry {
					panic(rec)
				}
				r.Abort() // conflict detected at access time
				ok = false
			}
		}()
		r.OpenForRead(holder)
		return r.LoadBytes(r.LoadRef(holder, 0)), true
	}()
	w.Abort()
	if ok {
		err := r.Commit()
		if err != nil && !errors.Is(err, engine.ErrConflict) {
			t.Fatalf("reader commit: %v", err)
		}
		if err == nil && seen != "old" {
			t.Fatalf("a committed reader saw %q from an aborted publisher", seen)
		}
	}
	if got, _ := readBytes(t, e, holder); got != "old" {
		t.Fatalf("after the publisher aborted, holder reads %q, want \"old\"", got)
	}
}

// testBytesCopiesParts mutates the caller's buffers after allocation: the
// record must keep the bytes it was given.
func testBytesCopiesParts(t *testing.T, e engine.Engine) {
	for _, n := range []int{1, 2} {
		holder := e.NewObj(0, 1)
		src := []byte("source")
		parts := [][]byte{src}
		want := "source"
		if n == 2 {
			parts = append(parts, src)
			want = "sourcesource"
		}
		if err := engine.Run(e, func(tx engine.Txn) error {
			rec := tx.AllocBytes(parts...)
			copy(src, "XXXXXX")
			if got := tx.LoadBytes(rec); got != want {
				t.Errorf("%d part(s): record reads %q after its source changed, want %q", n, got, want)
			}
			tx.OpenForUpdate(holder)
			tx.LogForUndoRef(holder, 0)
			tx.StoreRef(holder, 0, rec)
			copy(src, "source")
			return nil
		}); err != nil {
			t.Fatalf("publish: %v", err)
		}
		copy(src, "YYYYYY")
		if got, _ := readBytes(t, e, holder); got != want {
			t.Errorf("%d part(s): published record reads %q after its source changed, want %q", n, got, want)
		}
	}
}

// testBytesFieldAccessPanics checks that a record has no words and no refs:
// every field access on one panics, on a record local to the transaction
// and on a published one.
func testBytesFieldAccessPanics(t *testing.T, e engine.Engine) {
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			rec := recover()
			if rec == nil {
				t.Errorf("%s on a byte record did not panic", what)
			}
			if _, isRetry := rec.(*engine.Retry); isRetry {
				t.Errorf("%s on a byte record raised a retry, not a panic", what)
			}
		}()
		f()
	}
	local := func(what string, f func(tx engine.Txn, r engine.Handle)) {
		tx := e.Begin()
		defer tx.Abort()
		r := tx.AllocBytes([]byte("0123456789abcdef"))
		panics(what+" (local record)", func() { f(tx, r) })
	}
	local("LoadWord", func(tx engine.Txn, r engine.Handle) { tx.LoadWord(r, 0) })
	local("LoadRef", func(tx engine.Txn, r engine.Handle) { tx.LoadRef(r, 0) })
	local("StoreWord", func(tx engine.Txn, r engine.Handle) { tx.StoreWord(r, 0, 1) })
	local("StoreRef", func(tx engine.Txn, r engine.Handle) { tx.StoreRef(r, 0, nil) })

	holder := e.NewObj(0, 1)
	publishBytes(t, e, holder, []byte("0123456789abcdef"))
	published := func(what string, f func(tx engine.Txn, r engine.Handle)) {
		tx := e.BeginReadOnly()
		defer tx.Abort()
		tx.OpenForRead(holder)
		r := tx.LoadRef(holder, 0)
		tx.OpenForRead(r)
		panics(what+" (published record)", func() { f(tx, r) })
	}
	published("LoadWord", func(tx engine.Txn, r engine.Handle) { tx.LoadWord(r, 0) })
	published("LoadRef", func(tx engine.Txn, r engine.Handle) { tx.LoadRef(r, 0) })
}
