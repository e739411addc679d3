// Package resultstore is the system of record for simulation results:
// a crash-safe, append-only log of encoded measurements keyed by the
// canonical experiments.Job.Key() content hash.
//
// Following the systems-of-record vs derived-data split (DDIA Part
// III), the log on disk is the source of truth; every other result
// holder — the hidisc-serve LRU, a client's figure assembly — is a
// derived view that can be rebuilt from it. Simulations are
// deterministic, so a key fully identifies its value and a record is
// immutable once written: the store never updates in place, never
// compacts, and first-write-wins on duplicate keys.
//
// # On-disk format
//
// A store directory holds two files:
//
//	results.log   the record log, the only copy of the data
//	results.lock  flock'd for single-writer exclusion
//
// The log begins with a 16-byte versioned header and is followed by
// length-prefixed records:
//
//	header:  magic "hidisclg" | u32 version (=1) | u32 reserved (=0)
//	record:  u32 frameLen | frame | u32 CRC-32C(frame)
//	frame:   u16 keyLen | key | value
//
// All integers are little-endian; the CRC is Castagnoli (the
// polynomial with hardware support on both amd64 and arm64). The
// frame length covers keyLen+key+value, so a record occupies
// 4+frameLen+4 bytes.
//
// # Recovery
//
// Open always scans the whole log, verifying every CRC, and rebuilds
// its in-memory index from the scan. The first invalid record — a
// short length prefix, an implausible length, a frame extending past
// EOF, or a CRC mismatch — is a torn write from a crash mid-append
// when nothing valid follows it: a crash tears only the final append,
// so the log is truncated back to the last valid record and the loss
// is reported in the RecoveryReport. When a valid record follows it,
// or more bytes follow than one append could leave, it cannot be a
// torn tail; it is data corruption in the middle of the system of
// record, and Open refuses to proceed (*CorruptLogError) rather than
// silently dropping records.
//
// # Durability
//
// The fsync policy is configurable (Options.Sync): SyncAlways fsyncs
// the log after every append — a record handed back from Put has hit
// the disk; SyncNever leaves scheduling to the OS (crash loses the
// page-cache tail, recovery still truncates it cleanly). Close always
// syncs.
package resultstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// SyncPolicy says when the log file is fsync'd.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a Put that returned nil is
	// on disk. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever lets the OS schedule writeback. A crash can lose the
	// unsynced tail; recovery truncates it to the last full record.
	SyncNever
)

// ParseSyncPolicy resolves a policy's wire/flag name.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return SyncAlways, fmt.Errorf("unknown sync policy %q (want \"always\" or \"never\")", s)
}

// String returns the flag name of the policy.
func (p SyncPolicy) String() string {
	if p == SyncNever {
		return "never"
	}
	return "always"
}

// Options parameterise Open.
type Options struct {
	// Sync is the fsync policy for appends (default SyncAlways).
	Sync SyncPolicy
}

// RecoveryReport describes what Open found in an existing log.
type RecoveryReport struct {
	// Records is the number of valid records recovered.
	Records int
	// Bytes is the valid log length (header + records).
	Bytes int64
	// TornTail is true when a torn write was found at the tail and
	// truncated away.
	TornTail bool
	// TruncatedBytes is how many trailing bytes the torn write cost.
	TruncatedBytes int64
	// TornReason says what shape the torn tail had (short prefix,
	// implausible length, overrunning frame, CRC mismatch).
	TornReason string
}

// CorruptLogError reports corruption in the middle of the log — not a
// torn tail, and therefore not recoverable by truncation without
// losing records that come after it. Open never repairs this
// silently: the operator decides.
type CorruptLogError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptLogError) Error() string {
	return fmt.Sprintf("resultstore: corrupt record at %s offset %d: %s", e.Path, e.Offset, e.Reason)
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("resultstore: store is closed")

// ErrLocked is returned by Open when another process holds the store.
var ErrLocked = errors.New("resultstore: store directory is locked by another process")

// errCrashpoint aborts a Put at an injected crashpoint, leaving the
// log exactly as a process death at that instant would.
var errCrashpoint = errors.New("resultstore: simulated crash")

const (
	logName  = "results.log"
	lockName = "results.lock"

	logVersion = 1
	headerLen  = 16

	// maxFrame bounds a single record (key + value) at 64 MiB: far
	// above any encoded measurement, low enough that a garbage length
	// prefix is recognised instead of driving a giant read.
	maxFrame = 64 << 20
	minFrame = 2 // a frame is at least its keyLen field
)

var logMagic = [8]byte{'h', 'i', 'd', 'i', 's', 'c', 'l', 'g'}

// castagnoli is the CRC-32C table (hardware-accelerated polynomial).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Crashpoints for deterministic torn-write tests. A hook observing one
// of these stops the append exactly there, as kill -9 would.
const (
	// CrashAfterHeader dies with only the 4-byte length prefix written.
	CrashAfterHeader = "after-header"
	// CrashMidPayload dies with the frame half-written.
	CrashMidPayload = "mid-payload"
	// CrashBeforeIndex dies after the record is fully durable but
	// before the in-memory index update; recovery must still surface
	// it.
	CrashBeforeIndex = "before-index"
)

// indexEntry locates one record's value region in the log.
type indexEntry struct {
	length int32 // value length
	crc    uint32
	keyLen int32
	frame  int64 // offset of the frame start (keyLen field)
}

// Store is an open result store. Get is safe for concurrent use with
// other Gets and with one Put (single-writer / multi-reader: Puts are
// serialised by a mutex, reads go through pread and never touch the
// write path's file offset). Cross-process exclusion is an flock on
// results.lock, released automatically if the process dies.
type Store struct {
	dir  string
	opts Options

	mu     sync.RWMutex
	log    *os.File
	lock   *os.File
	index  map[string]indexEntry
	size   int64 // current valid log length
	closed bool

	report RecoveryReport

	// crash, when non-nil, is consulted at each crashpoint during an
	// append; returning true abandons the write right there (test
	// hook for torn-write recovery).
	crash func(point string) bool
}

// Open opens (creating if necessary) the store in dir and recovers the
// log into the in-memory index. The second return value reports what
// recovery found; it is also retained and available from
// (*Store).Recovery.
func Open(dir string, opts Options) (*Store, RecoveryReport, error) {
	var rep RecoveryReport
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, rep, err
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return nil, rep, err
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, rep, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		return nil, rep, fmt.Errorf("resultstore: locking %s: %w", dir, err)
	}
	logf, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		lock.Close()
		return nil, rep, err
	}
	s := &Store{dir: dir, opts: opts, log: logf, lock: lock, index: map[string]indexEntry{}}
	if err := s.recover(); err != nil {
		logf.Close()
		lock.Close()
		return nil, rep, err
	}
	return s, s.report, nil
}

// Recovery returns the report from this store's Open.
func (s *Store) Recovery() RecoveryReport { return s.report }

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Has reports whether key has a record.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// Get returns the value stored for key. The record's CRC is
// re-verified on every read, so bitrot that postdates Open surfaces as
// an error instead of a silently wrong result.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	ent, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	frame := make([]byte, 2+ent.keyLen+ent.length)
	if _, err := s.log.ReadAt(frame, ent.frame); err != nil {
		return nil, false, fmt.Errorf("resultstore: reading record for %s: %w", key, err)
	}
	if crc := crc32.Checksum(frame, castagnoli); crc != ent.crc {
		return nil, false, &CorruptLogError{
			Path: filepath.Join(s.dir, logName), Offset: ent.frame - 4,
			Reason: fmt.Sprintf("CRC mismatch on read: stored %08x, computed %08x", ent.crc, crc),
		}
	}
	return frame[2+ent.keyLen:], true, nil
}

// Put appends a record for key. Records are immutable and simulations
// deterministic, so a duplicate key is a no-op (first write wins).
// With SyncAlways, a nil return means the record is on disk.
func (s *Store) Put(key string, value []byte) error {
	if len(key) == 0 {
		return errors.New("resultstore: empty key")
	}
	if len(key) > 0xffff {
		return fmt.Errorf("resultstore: key too long (%d bytes)", len(key))
	}
	frameLen := 2 + len(key) + len(value)
	if frameLen > maxFrame {
		return fmt.Errorf("resultstore: record too large (%d bytes, cap %d)", frameLen, maxFrame)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.index[key]; dup {
		return nil
	}

	// Build the full record: length prefix, frame, CRC.
	rec := make([]byte, 4+frameLen+4)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(frameLen))
	frame := rec[4 : 4+frameLen]
	binary.LittleEndian.PutUint16(frame[0:2], uint16(len(key)))
	copy(frame[2:], key)
	copy(frame[2+len(key):], value)
	crc := crc32.Checksum(frame, castagnoli)
	binary.LittleEndian.PutUint32(rec[4+frameLen:], crc)

	off := s.size
	write := rec
	switch {
	case s.crash != nil && s.crash(CrashAfterHeader):
		write = rec[:4]
	case s.crash != nil && s.crash(CrashMidPayload):
		write = rec[:4+frameLen/2]
	}
	if _, err := s.log.WriteAt(write, off); err != nil {
		// A partial append is a torn tail; cut it back to the last
		// full record right now (live recovery semantics) so a later
		// successful Put can't interleave with half-written garbage.
		_ = s.log.Truncate(s.size)
		return fmt.Errorf("resultstore: appending record: %w", err)
	}
	if len(write) != len(rec) {
		return errCrashpoint
	}
	if s.opts.Sync == SyncAlways {
		if err := s.log.Sync(); err != nil {
			return fmt.Errorf("resultstore: fsync: %w", err)
		}
	}
	if s.crash != nil && s.crash(CrashBeforeIndex) {
		return errCrashpoint
	}
	s.size = off + int64(len(rec))
	s.index[key] = indexEntry{
		length: int32(len(value)),
		crc:    crc,
		keyLen: int32(len(key)),
		frame:  off + 4,
	}
	return nil
}

// Close syncs and closes the store. Closing an already-closed store is
// a no-op: the caller graph (drain paths, signal handlers) may race to
// be the one that closes.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.log.Sync()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	// Releasing the flock is implicit in closing its fd.
	if cerr := s.lock.Close(); err == nil {
		err = cerr
	}
	return err
}
