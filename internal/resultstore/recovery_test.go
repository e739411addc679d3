package resultstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestOpensOlderBuildDirectory opens a store directory written by the
// build that still kept a results.idx sidecar: the same twelve records
// come back byte-identical, and the stale sidecar is neither read nor
// touched.
func TestOpensOlderBuildDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{logName, "results.idx"} {
		b, err := os.ReadFile(filepath.Join("testdata", "v1store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	idxBefore, _ := os.ReadFile(filepath.Join(dir, "results.idx"))
	s, rep := mustOpen(t, dir, Options{})
	if rep.Records != 12 || rep.TornTail {
		t.Fatalf("recovery report %+v, want 12 intact records", rep)
	}
	for i := 0; i < 12; i++ {
		// The values the fixture was written with.
		want := bytes.Repeat([]byte(fmt.Sprintf("value-%02d|", i)), i*7)
		wantGet(t, s, fmt.Sprintf("key-%02d", i), string(want))
	}
	put(t, s, "new", "appended by this build")
	s.Close()
	if idxAfter, _ := os.ReadFile(filepath.Join(dir, "results.idx")); !bytes.Equal(idxBefore, idxAfter) {
		t.Fatal("results.idx changed")
	}
}

// fuzzValue is record i's value in FuzzRecover: lengths 0..299 and
// bytes that differ per record, so a value served for the wrong key
// cannot pass.
func fuzzValue(i int) []byte {
	v := make([]byte, (i*97)%300)
	for j := range v {
		v[j] = byte(i*31 + j*7)
	}
	return v
}

// FuzzRecover writes n records, applies fuzz-chosen byte flips to the
// record region and one truncation, then reopens. Open must either
// refuse with *CorruptLogError or recover exactly a prefix of the
// written records, in write order, each byte-identical to its Put. When
// all the damage lies in the final record, Open must succeed and
// report the tail torn.
func FuzzRecover(f *testing.F) {
	f.Add(uint8(4), []byte{}, uint16(0))                          // undamaged
	f.Add(uint8(4), []byte{0, 2, 1}, uint16(0))                   // first record's length prefix
	f.Add(uint8(10), []byte{0x03, 0x00, 0xff}, uint16(0))         // mid-log payload byte
	f.Add(uint8(3), []byte{}, uint16(5))                          // torn final record
	f.Add(uint8(6), []byte{0xff, 0xff, 0x80}, uint16(1))          // flip and cut at the tail
	f.Add(uint8(2), []byte{0, 0, 1, 0, 1, 1, 0, 2, 4}, uint16(0)) // several flips
	f.Add(uint8(1), []byte{0x00, 0x10, 0x40}, uint16(0))          // final length lowered
	f.Fuzz(func(t *testing.T, nrec uint8, flips []byte, cut uint16) {
		n := 1 + int(nrec%12)
		dir := t.TempDir()
		s, _, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		lastStart := 0
		for i := 0; i < n; i++ {
			if err := s.Put(fmt.Sprintf("key-%02d", i), fuzzValue(i)); err != nil {
				t.Fatal(err)
			}
			if i == n-2 {
				lastStart = int(s.size)
			}
		}
		if n == 1 {
			lastStart = headerLen
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(dir, logName)
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		pristine := bytes.Clone(data)
		for i := 0; i+3 <= len(flips) && i < 3*8; i += 3 {
			off := headerLen + (int(flips[i])<<8|int(flips[i+1]))%(len(data)-headerLen)
			data[off] ^= flips[i+2]
		}
		size := len(data) - int(cut)%(len(data)+1)
		damaged, confined := size < len(data), size >= lastStart
		for off := 0; off < size; off++ {
			if data[off] != pristine[off] {
				damaged, confined = true, confined && off >= lastStart
			}
		}
		if err := os.WriteFile(logPath, data[:size], 0o666); err != nil {
			t.Fatal(err)
		}

		s, rep, err := Open(dir, Options{})
		if err != nil {
			var ce *CorruptLogError
			if !errors.As(err, &ce) {
				t.Fatalf("Open = %v, want success or CorruptLogError", err)
			}
			if confined {
				t.Fatalf("damage confined to the final record refused: %v", err)
			}
			return
		}
		defer s.Close()
		if rep.Records > n || s.Len() != rep.Records {
			t.Fatalf("recovered %d records (Len %d) of %d written", rep.Records, s.Len(), n)
		}
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key-%02d", i)
			got, ok, err := s.Get(key)
			if err != nil {
				t.Fatalf("Get(%s): %v", key, err)
			}
			if ok != (i < rep.Records) {
				t.Fatalf("Get(%s) present=%v with %d records recovered", key, ok, rep.Records)
			}
			if ok && !bytes.Equal(got, fuzzValue(i)) {
				t.Fatalf("Get(%s) returned a wrong value", key)
			}
		}
		if !damaged && (rep.Records != n || rep.TornTail) {
			t.Fatalf("undamaged log: recovery report %+v", rep)
		}
		if damaged && confined && (rep.Records != n-1 || rep.TornTail != (size > lastStart)) {
			t.Fatalf("damage in the final record: recovery report %+v, want %d records", rep, n-1)
		}
	})
}
