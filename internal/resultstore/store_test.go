package resultstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Store, RecoveryReport) {
	t.Helper()
	s, rep, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rep
}

func put(t *testing.T, s *Store, key, val string) {
	t.Helper()
	if err := s.Put(key, []byte(val)); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func wantGet(t *testing.T, s *Store, key, val string) {
	t.Helper()
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get(%s) = %v, %v, %v; want hit", key, got, ok, err)
	}
	if string(got) != val {
		t.Fatalf("Get(%s) = %q, want %q", key, got, val)
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, rep := mustOpen(t, dir, Options{})
	if rep.Records != 0 || rep.TornTail {
		t.Fatalf("fresh store recovery report %+v", rep)
	}
	put(t, s, "alpha", "first value")
	put(t, s, "beta", string(bytes.Repeat([]byte{0, 1, 2, 0xff}, 1000)))
	put(t, s, "gamma", "") // empty values are legal
	wantGet(t, s, "alpha", "first value")
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	// The log is the only copy of the data: no derived files.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if got := fmt.Sprint(names); got != "[results.lock results.log]" {
		t.Fatalf("store directory holds %s, want [results.lock results.log]", got)
	}
	// Duplicate put is a no-op: first write wins.
	put(t, s, "alpha", "SHOULD NOT REPLACE")
	wantGet(t, s, "alpha", "first value")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	s2, rep2 := mustOpen(t, dir, Options{})
	if rep2.Records != 3 || rep2.TornTail {
		t.Fatalf("reopen recovery report %+v", rep2)
	}
	wantGet(t, s2, "alpha", "first value")
	wantGet(t, s2, "beta", string(bytes.Repeat([]byte{0, 1, 2, 0xff}, 1000)))
	wantGet(t, s2, "gamma", "")
	if _, ok, err := s2.Get("missing"); ok || err != nil {
		t.Fatalf("Get(missing) = %v, %v", ok, err)
	}
}

func TestSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	_, _ = mustOpen(t, dir, Options{})
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	put(t, s, "k", "v")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k2", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v", err)
	}
	if _, _, err := s.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v", err)
	}
}

// TestCrashpointRecovery drives every deterministic crashpoint: the
// append dies after the length prefix, mid-payload, or after the
// record is durable but before the index update. In each case a reopen
// must recover every record completed before the crash — and for
// CrashBeforeIndex, the record itself, which IS durable.
func TestCrashpointRecovery(t *testing.T) {
	for _, point := range []string{CrashAfterHeader, CrashMidPayload, CrashBeforeIndex} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := mustOpen(t, dir, Options{})
			put(t, s, "committed-1", "survives")
			put(t, s, "committed-2", "also survives")

			s.crash = func(p string) bool { return p == point }
			err := s.Put("torn", []byte("the record the crash interrupts"))
			if !errors.Is(err, errCrashpoint) {
				t.Fatalf("crashing Put = %v, want errCrashpoint", err)
			}
			// Simulate the process death: abandon the handle without
			// Close (Close would sync; the flock dies with the fd).
			s.mu.Lock()
			s.closed = true
			s.log.Close()
			s.lock.Close()
			s.mu.Unlock()

			s2, rep := mustOpen(t, dir, Options{})
			wantGet(t, s2, "committed-1", "survives")
			wantGet(t, s2, "committed-2", "also survives")
			switch point {
			case CrashBeforeIndex:
				// The record hit the disk before the crash; recovery
				// must surface it even though no index was updated.
				if rep.TornTail {
					t.Fatalf("before-index crash reported a torn tail: %+v", rep)
				}
				if rep.Records != 3 {
					t.Fatalf("recovered %d records, want 3: %+v", rep.Records, rep)
				}
				wantGet(t, s2, "torn", "the record the crash interrupts")
			default:
				if !rep.TornTail || rep.TruncatedBytes == 0 {
					t.Fatalf("crash %s: recovery report %+v, want torn tail", point, rep)
				}
				if rep.Records != 2 {
					t.Fatalf("recovered %d records, want 2: %+v", rep.Records, rep)
				}
				if s2.Has("torn") {
					t.Fatal("torn record resurfaced")
				}
			}
			// The store must be fully writable after recovery.
			put(t, s2, "after-recovery", "ok")
			wantGet(t, s2, "after-recovery", "ok")
		})
	}
}

// TestTornTailShapes truncates a healthy log at every byte boundary of
// its final record; reopening must always recover the earlier records
// and report the tail torn (or intact at the exact record boundary).
func TestTornTailShapes(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	put(t, s, "keep-1", "value one")
	put(t, s, "keep-2", "value two")
	mark, _ := os.Stat(filepath.Join(dir, logName))
	keepSize := mark.Size()
	put(t, s, "tail", "the record to tear")
	full, _ := os.Stat(filepath.Join(dir, logName))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logName)
	pristine, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := keepSize; cut < full.Size(); cut++ {
		if err := os.WriteFile(logPath, pristine[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		s2, rep, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		if rep.Records != 2 {
			t.Fatalf("cut at %d: recovered %d records, want 2 (%+v)", cut, rep.Records, rep)
		}
		if cut > keepSize && !rep.TornTail {
			t.Fatalf("cut at %d: torn tail not reported (%+v)", cut, rep)
		}
		wantGet(t, s2, "keep-1", "value one")
		wantGet(t, s2, "keep-2", "value two")
		if s2.Has("tail") {
			t.Fatalf("cut at %d: torn record resurfaced", cut)
		}
		s2.Close()
	}
}

// TestMidLogCorruptionRefused flips a byte in the middle record of a
// three-record log: recovery must refuse to open (CorruptLogError
// naming the offset), never silently skip to the next record.
func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	put(t, s, "first", "aaaa")
	put(t, s, "second", "bbbb")
	put(t, s, "third", "cccc")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one payload byte of the middle record: find "bbbb".
	i := bytes.Index(data, []byte("bbbb"))
	if i < 0 {
		t.Fatal("middle record payload not found")
	}
	data[i] ^= 0xff
	if err := os.WriteFile(logPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{})
	var ce *CorruptLogError
	if !errors.As(err, &ce) {
		t.Fatalf("Open on mid-log corruption = %v, want CorruptLogError", err)
	}
	if ce.Offset <= headerLen {
		t.Fatalf("corruption offset %d implausible", ce.Offset)
	}
}

// TestFinalRecordCRCTornTail flips a byte in the LAST record: with no
// bytes following, a CRC mismatch is indistinguishable from a torn
// overwrite, so it is truncated and reported, not fatal.
func TestFinalRecordCRCTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	put(t, s, "first", "aaaa")
	put(t, s, "last", "zzzz")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logName)
	data, _ := os.ReadFile(logPath)
	i := bytes.LastIndex(data, []byte("zzzz"))
	data[i] ^= 0xff
	if err := os.WriteFile(logPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	s2, rep := mustOpen(t, dir, Options{})
	if !rep.TornTail || rep.Records != 1 {
		t.Fatalf("recovery report %+v, want torn tail with 1 record", rep)
	}
	wantGet(t, s2, "first", "aaaa")
}

// TestLengthPrefixFlip flips bit 16 of one record's length prefix, so
// the record claims to extend past EOF. On a non-final record the later
// records are intact and acknowledged: Open must refuse, not truncate
// them away as a torn tail. On the final record nothing valid follows,
// and the same flip is a torn tail.
func TestLengthPrefixFlip(t *testing.T) {
	const n = 10
	for _, victim := range []int{3, n - 1} {
		t.Run(fmt.Sprintf("record-%d", victim), func(t *testing.T) {
			dir := t.TempDir()
			s, _ := mustOpen(t, dir, Options{})
			val := string(bytes.Repeat([]byte{'v'}, 300))
			for i := 0; i < n; i++ {
				put(t, s, fmt.Sprintf("k%d", i), val)
			}
			s.Close()
			logPath := filepath.Join(dir, logName)
			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			recLen := (len(data) - headerLen) / n
			data[headerLen+victim*recLen+2] ^= 1 // bit 16 of the u32 prefix
			if err := os.WriteFile(logPath, data, 0o666); err != nil {
				t.Fatal(err)
			}
			s2, rep, err := Open(dir, Options{})
			if victim < n-1 {
				var ce *CorruptLogError
				if !errors.As(err, &ce) {
					t.Fatalf("Open = %v (report %+v), want CorruptLogError", err, rep)
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer s2.Close()
			if !rep.TornTail || rep.Records != n-1 {
				t.Fatalf("recovery report %+v, want torn tail with %d records", rep, n-1)
			}
			wantGet(t, s2, "k0", val)
		})
	}
}

// TestGetVerifiesCRC corrupts a record byte after open: the read path
// re-verifies the CRC, so the damage surfaces as an error rather than
// a silently wrong measurement.
func TestGetVerifiesCRC(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	put(t, s, "rot", "pristine-bytes")
	// Bitrot behind the store's back via a second handle.
	logPath := filepath.Join(dir, logName)
	data, _ := os.ReadFile(logPath)
	i := bytes.Index(data, []byte("pristine-bytes"))
	f, err := os.OpenFile(logPath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'X'}, int64(i)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, _, err = s.Get("rot")
	var ce *CorruptLogError
	if !errors.As(err, &ce) {
		t.Fatalf("Get on bitrot = %v, want CorruptLogError", err)
	}
}

// TestBadMagicAndVersion pins the header gate.
func TestBadMagicAndVersion(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, logName)
	if err := os.WriteFile(logPath, []byte("not a hidisc log at all"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a foreign file as its log")
	}

	dir2 := t.TempDir()
	s, _ := mustOpen(t, dir2, Options{})
	s.Close()
	data, _ := os.ReadFile(filepath.Join(dir2, logName))
	binary.LittleEndian.PutUint32(data[8:12], 99)
	os.WriteFile(filepath.Join(dir2, logName), data, 0o666)
	if _, _, err := Open(dir2, Options{}); err == nil {
		t.Fatal("Open accepted a future log version")
	}
}

// TestSyncNeverStillRecovers exercises the relaxed policy: records are
// readable in-process and across a clean close/reopen.
func TestSyncNeverStillRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Sync: SyncNever})
	put(t, s, "lazy", "written without fsync")
	wantGet(t, s, "lazy", "written without fsync")
	s.Close() // Close syncs regardless of policy
	s2, rep := mustOpen(t, dir, Options{Sync: SyncNever})
	if rep.Records != 1 {
		t.Fatalf("recovered %d records, want 1", rep.Records)
	}
	wantGet(t, s2, "lazy", "written without fsync")
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"": SyncAlways, "always": SyncAlways, "never": SyncNever} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
	if SyncAlways.String() != "always" || SyncNever.String() != "never" {
		t.Error("SyncPolicy.String round-trip broken")
	}
}

// TestConcurrentReadersOneWriter hammers Get from many goroutines
// while one writer appends — the single-writer/multi-reader contract
// under the race detector.
func TestConcurrentReadersOneWriter(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Sync: SyncNever})
	const n = 64
	for i := 0; i < n; i++ {
		put(t, s, fmt.Sprintf("seed-%d", i), fmt.Sprintf("val-%d", i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("seed-%d", i%n)
				v, ok, err := s.Get(k)
				if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i%n) {
					t.Errorf("reader %d: Get(%s) = %q %v %v", g, k, v, ok, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 256; i++ {
		put(t, s, fmt.Sprintf("new-%d", i), "concurrent")
	}
	close(stop)
	wg.Wait()
	if s.Len() != n+256 {
		t.Fatalf("Len = %d, want %d", s.Len(), n+256)
	}
}

// TestPutValidation pins the request-shaped error paths.
func TestPutValidation(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	if err := s.Put("", []byte("x")); err == nil {
		t.Error("empty key accepted")
	}
	if err := s.Put(string(bytes.Repeat([]byte{'k'}, 70000)), nil); err == nil {
		t.Error("oversized key accepted")
	}
	if err := s.Put("big", bytes.Repeat([]byte{0}, maxFrame)); err == nil {
		t.Error("oversized record accepted")
	}
}
