package wal

import (
	"bytes"
	"testing"
)

func sampleOps() []Op {
	return []Op{
		{Key: []byte("acct-00001"), Val: []byte("100")},
		{Del: true, Key: []byte("stale-key")},
		{Key: []byte("k"), Val: nil},
		{Key: bytes.Repeat([]byte("x"), 300), Val: bytes.Repeat([]byte("v"), 1000)},
	}
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Del != b[i].Del || !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Val, b[i].Val) {
			return false
		}
	}
	return true
}

func TestCommitRecordRoundTrip(t *testing.T) {
	ops := sampleOps()
	frame := AppendCommitRecord(nil, 42, ops)
	payload, rest, ok, err := NextFrame(frame)
	if err != nil || !ok || len(rest) != 0 {
		t.Fatalf("NextFrame: ok=%v rest=%d err=%v", ok, len(rest), err)
	}
	rec, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LSN != 42 || !opsEqual(rec.Ops, ops) {
		t.Fatalf("round trip mismatch: %+v", rec)
	}
}

func TestNextFrameMultiple(t *testing.T) {
	var b []byte
	for lsn := uint64(1); lsn <= 5; lsn++ {
		b = AppendCommitRecord(b, lsn, []Op{{Key: []byte{byte(lsn)}, Val: []byte{byte(lsn)}}})
	}
	var lsns []uint64
	for {
		payload, rest, ok, err := NextFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, rec.LSN)
		b = rest
	}
	if len(lsns) != 5 || lsns[0] != 1 || lsns[4] != 5 {
		t.Fatalf("scanned %v", lsns)
	}
}

func TestNextFrameTorn(t *testing.T) {
	frame := AppendCommitRecord(nil, 1, sampleOps())
	cases := map[string][]byte{
		"short header":   frame[:4],
		"short payload":  frame[:len(frame)-3],
		"corrupt crc":    append(append([]byte(nil), frame[:4]...), append([]byte{^frame[4], frame[5], frame[6], frame[7]}, frame[8:]...)...),
		"corrupt body":   flipLastByte(frame),
		"garbage length": {0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 2, 3},
	}
	for name, b := range cases {
		if _, _, _, err := NextFrame(b); err != ErrTorn {
			t.Errorf("%s: want ErrTorn, got %v", name, err)
		}
	}
}

func flipLastByte(frame []byte) []byte {
	b := append([]byte(nil), frame...)
	b[len(b)-1] ^= 0xff
	return b
}

func TestDecodeRecordRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"too short":     {1, 2, 3},
		"snapshot kind": append(make([]byte, 8), byte(kindSnapHeader)),
		"unknown kind":  append(make([]byte, 8), 99),
		// Op count claims more ops than the payload could hold.
		"overrun ops": append(append(make([]byte, 8), byte(KindCommit)), 0xff, 0xff, 0x03),
	}
	for name, payload := range cases {
		if _, err := DecodeRecord(payload); err == nil {
			t.Errorf("%s: decode succeeded on malformed payload", name)
		}
	}
}
