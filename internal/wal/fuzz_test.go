package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWALRecord feeds arbitrary bytes through the frame splitter and record
// decoder. Neither may panic, and any record that decodes successfully must
// survive a re-encode/decode round trip unchanged. (Byte identity would be
// too strict: varints admit non-minimal encodings a fuzzer could discover.)
func FuzzWALRecord(f *testing.F) {
	f.Add(AppendCommitRecord(nil, 1, sampleOps()))
	// A CRC-valid frame of the retired kind 2 must be rejected, not decoded.
	retired, start := beginFrame(nil)
	retired = append(binary.LittleEndian.AppendUint64(retired, 9), 2)
	f.Add(sealFrame(append(retired, 0), start))
	f.Add(AppendCommitRecord(nil, 1<<40, nil))
	// Mutated seeds: truncations and bit flips of a valid frame.
	base := AppendCommitRecord(nil, 77, sampleOps())
	f.Add(base[:len(base)/2])
	mut := append([]byte(nil), base...)
	mut[10] ^= 0x40
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, rest, ok, err := NextFrame(data)
		if err != nil {
			if err != ErrTorn {
				t.Fatalf("NextFrame error %v is not ErrTorn", err)
			}
			return
		}
		if !ok {
			if len(data) != 0 {
				t.Fatal("NextFrame returned clean end on non-empty input")
			}
			return
		}
		if len(payload)+frameHeaderLen+len(rest) != len(data) {
			t.Fatal("frame split loses bytes")
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return // malformed but CRC-valid payloads are rejected, not fatal
		}
		reenc := AppendCommitRecord(nil, rec.LSN, rec.Ops)
		payload2, rest2, ok2, err2 := NextFrame(reenc)
		if err2 != nil || !ok2 || len(rest2) != 0 {
			t.Fatalf("re-encoded frame invalid: ok=%v err=%v", ok2, err2)
		}
		rec2, err2 := DecodeRecord(payload2)
		if err2 != nil {
			t.Fatalf("re-encoded record undecodable: %v", err2)
		}
		if rec2.LSN != rec.LSN || len(rec2.Ops) != len(rec.Ops) {
			t.Fatalf("round trip mismatch: %+v vs %+v", rec, rec2)
		}
		for i := range rec.Ops {
			if rec2.Ops[i].Del != rec.Ops[i].Del ||
				!bytes.Equal(rec2.Ops[i].Key, rec.Ops[i].Key) ||
				!bytes.Equal(rec2.Ops[i].Val, rec.Ops[i].Val) {
				t.Fatalf("op %d mismatch", i)
			}
		}
	})
}
