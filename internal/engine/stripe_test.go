package engine_test

import (
	"testing"
	"unsafe"

	"memtx/internal/core"
	"memtx/internal/engine"
	"memtx/internal/ostm"
	"memtx/internal/wstm"
)

// TestStripesDoNotShareCacheLines pins the recorder's layout — every stripe
// is a whole number of 64-byte lines and starts on a line boundary relative
// to the recorder — and that two transactions live at once on one engine
// record into different stripes.
func TestStripesDoNotShareCacheLines(t *testing.T) {
	const line = 64
	if size := unsafe.Sizeof(engine.Stripe{}); size%line != 0 {
		t.Errorf("stripe size %d is not a multiple of %d", size, line)
	}
	r := new(engine.Recorder)
	s0, s1 := r.Stripe(), r.Stripe()
	base := uintptr(unsafe.Pointer(r))
	if off := uintptr(unsafe.Pointer(s1)) - base; off%line != 0 {
		t.Errorf("stripe 1 at offset %d, not a multiple of %d", off, line)
	}
	if d := uintptr(unsafe.Pointer(s1)) - uintptr(unsafe.Pointer(s0)); d != unsafe.Sizeof(engine.Stripe{}) {
		t.Errorf("stripes 0 and 1 are %d bytes apart, want the stripe size", d)
	}

	for _, e := range []engine.Engine{core.New(), wstm.New(wstm.WithStripes(1 << 10)), ostm.New()} {
		a, b := e.Begin(), e.BeginReadOnly()
		sa, sb := engine.StripeOf(a, e), engine.StripeOf(b, e)
		if _, ok := a.(engine.Striped); !ok {
			t.Errorf("%s: transactions have no stripe", e.Name())
		}
		if sa == sb {
			t.Errorf("%s: two live transactions share a stripe", e.Name())
		}
		a.Abort()
		b.Abort()
	}
}
