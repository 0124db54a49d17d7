package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALOpen feeds arbitrary bytes to recovery as one segment file. Open
// must never panic; when it succeeds, the records it returns are dense from
// the segment's first sequence, and the recovered log keeps working: one
// Append and a reopen return the same records plus the new one.
func FuzzWALOpen(f *testing.F) {
	dir := f.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{"alpha", "beta"} {
		if _, err := l.Append([]byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	valid, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[4] ^= 0xFF // first record's CRC
	f.Add(valid, uint64(1))
	f.Add(valid[:len(valid)-3], uint64(1)) // torn tail
	f.Add(flipped, uint64(1))
	f.Add([]byte{}, uint64(1))

	f.Fuzz(func(t *testing.T, data []byte, first uint64) {
		first = 1 + first%(1<<32) // a segment name any real log could carry
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(first)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(dir, Options{})
		if err != nil {
			return
		}
		for i, r := range recs {
			if r.Seq != first+uint64(i) {
				t.Fatalf("record %d has seq %d, want %d (dense from the segment's first)", i, r.Seq, first+uint64(i))
			}
		}
		seq, err := l.Append([]byte("next"))
		if err != nil {
			t.Fatalf("Append on a recovered log: %v", err)
		}
		if want := first + uint64(len(recs)); seq != want {
			t.Fatalf("Append after recovery got seq %d, want %d", seq, want)
		}
		l.Close()
		l2, again, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after Append: %v", err)
		}
		defer l2.Close()
		if len(again) != len(recs)+1 {
			t.Fatalf("reopen replayed %d records, want %d", len(again), len(recs)+1)
		}
		for i, r := range recs {
			if again[i].Seq != r.Seq || !bytes.Equal(again[i].Payload, r.Payload) {
				t.Fatalf("reopen changed record %d: %+v, want %+v", i, again[i], r)
			}
		}
		if last := again[len(recs)]; last.Seq != seq || string(last.Payload) != "next" {
			t.Fatalf("reopen's last record = %+v, want {%d next}", last, seq)
		}
	})
}
