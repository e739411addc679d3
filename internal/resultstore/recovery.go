package resultstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
)

// recover scans the whole log, verifying every record CRC, and leaves
// the store's in-memory index and size describing the valid prefix.
//
// The algorithm (see the package comment for the failure taxonomy):
//
//  1. An empty file gets a fresh header. A non-empty file must begin
//     with the magic and a supported version.
//  2. Records are walked sequentially. Each is valid iff its length
//     prefix is sane, the full frame+CRC fits in the file, and the CRC
//     matches.
//  3. The first invalid record ends the scan, and settleInvalid
//     decides between a torn tail (truncated) and mid-log corruption
//     (refused).
func (s *Store) recover() error {
	path := filepath.Join(s.dir, logName)
	fi, err := s.log.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()

	if size == 0 {
		var hdr [headerLen]byte
		copy(hdr[:8], logMagic[:])
		binary.LittleEndian.PutUint32(hdr[8:12], logVersion)
		if _, err := s.log.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("resultstore: writing log header: %w", err)
		}
		if err := s.log.Sync(); err != nil {
			return err
		}
		s.size = headerLen
		s.report = RecoveryReport{Bytes: headerLen}
		return nil
	}
	if size < headerLen {
		// Even the header is torn: only possible on a crash during the
		// very first open, before any record existed. Rewrite it.
		var hdr [headerLen]byte
		copy(hdr[:8], logMagic[:])
		binary.LittleEndian.PutUint32(hdr[8:12], logVersion)
		if _, err := s.log.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("resultstore: rewriting torn log header: %w", err)
		}
		if err := s.log.Truncate(headerLen); err != nil {
			return err
		}
		if err := s.log.Sync(); err != nil {
			return err
		}
		s.size = headerLen
		s.report = RecoveryReport{Bytes: headerLen, TornTail: true, TruncatedBytes: size, TornReason: "torn log header"}
		return nil
	}

	var hdr [headerLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(s.log, 0, headerLen), hdr[:]); err != nil {
		return err
	}
	if [8]byte(hdr[:8]) != logMagic {
		return &CorruptLogError{Path: path, Offset: 0, Reason: "bad magic (not a hidisc result log)"}
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != logVersion {
		return fmt.Errorf("resultstore: %s is log version %d, this build reads version %d", path, v, logVersion)
	}

	// Walk the records.
	off := int64(headerLen)
	for off < size {
		rec, reason, err := s.readRecord(off, size)
		if err != nil {
			return err
		}
		if rec == nil {
			return s.settleInvalid(path, off, size, reason)
		}
		frame := rec[4 : len(rec)-4]
		keyLen := int64(binary.LittleEndian.Uint16(frame[0:2]))
		if 2+keyLen > int64(len(frame)) {
			return &CorruptLogError{Path: path, Offset: off,
				Reason: fmt.Sprintf("key length %d exceeds frame %d", keyLen, len(frame))}
		}
		key := string(frame[2 : 2+keyLen])
		if _, dup := s.index[key]; !dup { // first write wins
			s.index[key] = indexEntry{
				length: int32(int64(len(frame)) - 2 - keyLen),
				crc:    binary.LittleEndian.Uint32(rec[len(rec)-4:]),
				keyLen: int32(keyLen),
				frame:  off + 4,
			}
		}
		off += int64(len(rec))
	}
	s.size = off
	s.report.Records = len(s.index)
	s.report.Bytes = off
	return nil
}

// readRecord returns the whole record (length prefix, frame, CRC) at
// off, or nil and the reason no valid record starts there.
func (s *Store) readRecord(off, size int64) ([]byte, string, error) {
	var lenBuf [4]byte
	if size-off < 4 {
		return nil, "short length prefix", nil
	}
	if _, err := s.log.ReadAt(lenBuf[:], off); err != nil {
		return nil, "", err
	}
	frameLen := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if frameLen < minFrame || frameLen > maxFrame {
		return nil, fmt.Sprintf("implausible frame length %d", frameLen), nil
	}
	if n := 4 + frameLen + 4; n > size-off {
		return nil, fmt.Sprintf("record extends past EOF (needs %d bytes, %d remain)", n, size-off), nil
	}
	rec := make([]byte, 4+frameLen+4)
	if _, err := s.log.ReadAt(rec, off); err != nil {
		return nil, "", err
	}
	if !validRecordAt(rec) {
		return nil, "CRC mismatch", nil
	}
	return rec, "", nil
}

// settleInvalid decides what the invalid record at off is. A crash
// tears only the final append, so a torn tail is at most one record
// long and never has a complete record after its start. When more
// bytes remain than one append could leave, or a valid record follows
// anywhere in them, truncating would discard acknowledged records:
// that is mid-log corruption, and Open refuses. Otherwise the tail is
// torn and truncated away.
func (s *Store) settleInvalid(path string, off, size int64, reason string) error {
	corrupt := func(detail string) error {
		return &CorruptLogError{Path: path, Offset: off, Reason: reason + ", " + detail}
	}
	if size-off > 4+maxFrame+4 {
		return corrupt(fmt.Sprintf("with %d bytes following", size-off))
	}
	tail := make([]byte, size-off)
	if _, err := s.log.ReadAt(tail, off); err != nil {
		return err
	}
	for p := 1; p < len(tail); p++ {
		if validRecordAt(tail[p:]) {
			return corrupt(fmt.Sprintf("valid record follows at offset %d", off+int64(p)))
		}
	}
	if err := s.log.Truncate(off); err != nil {
		return fmt.Errorf("resultstore: truncating torn tail: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return err
	}
	s.size = off
	s.report.Records = len(s.index)
	s.report.Bytes = off
	s.report.TornTail = true
	s.report.TruncatedBytes = size - off
	s.report.TornReason = reason
	return nil
}

// validRecordAt reports whether b begins with a whole record whose
// length prefix is sane and whose CRC matches.
func validRecordAt(b []byte) bool {
	if len(b) < 4 {
		return false
	}
	n := int64(binary.LittleEndian.Uint32(b))
	return n >= minFrame && n <= maxFrame && 4+n+4 <= int64(len(b)) &&
		crc32.Checksum(b[4:4+n], castagnoli) == binary.LittleEndian.Uint32(b[4+n:])
}
