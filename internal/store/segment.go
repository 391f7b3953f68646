package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Segment framing. Each record is laid down as
//
//	[magic u32][length u32][crc32c u32][payload]
//
// (big-endian), where payload is one compact-JSON record (a verdict in
// store.log, a memo class in memo.log, a job transition in queue.log)
// and the checksum is CRC-32C over the payload. The framing is not
// self-synchronizing — there is no way to reliably re-lock onto record
// boundaries past a damaged frame — so the reader enforces the log's
// prefix property instead: it accepts the longest clean prefix of
// well-framed, checksummed, decodable records and discards everything
// from the first torn or corrupt frame onward. A crash mid-append
// therefore costs at most the record being appended, and arbitrary
// input bytes can never panic the reader (FuzzStoreDecode pins this).

const (
	frameMagic = 0x52544d53 // "RTMS"
	// headerLen is magic + length + checksum.
	headerLen = 12
	// maxRecordLen bounds a single payload; anything larger in a
	// length field is treated as corruption, which keeps a damaged
	// length word from turning into a giant allocation.
	maxRecordLen = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame wraps one encoded record payload in segment framing, for
// building a segment image outside a Log (which frames its own
// appends and rewrites).
func Frame(payload []byte) ([]byte, error) {
	return appendFrame(make([]byte, 0, headerLen+len(payload)), payload)
}

// appendFrame appends payload's frame to dst.
func appendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) == 0 || len(payload) > maxRecordLen {
		return nil, fmt.Errorf("store: payload of %d bytes outside (0,%d]", len(payload), maxRecordLen)
	}
	dst = binary.BigEndian.AppendUint32(dst, frameMagic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...), nil
}

// ScanFrames reads framed payloads from r, invoking fn for each
// well-framed, checksummed one. It returns the byte length of the
// clean prefix (the offset the log should be truncated to on
// recovery) and whether trailing bytes were discarded as torn or
// corrupt. fn returning an error aborts the scan with that error and
// marks the offending frame as not part of the clean prefix (scanClean
// turns that into the logs' decode rule). The only non-nil error
// ScanFrames itself produces is a genuine read failure — malformed
// input is not an error, it is a shorter clean prefix.
func ScanFrames(r io.Reader, fn func(payload []byte) error) (valid int64, dropped bool, err error) {
	header := make([]byte, headerLen)
	var payload []byte
	for {
		_, err := io.ReadFull(r, header)
		if err == io.EOF {
			return valid, false, nil // clean end
		}
		if err == io.ErrUnexpectedEOF {
			return valid, true, nil // torn header
		}
		if err != nil {
			return valid, true, err
		}
		if binary.BigEndian.Uint32(header[0:4]) != frameMagic {
			return valid, true, nil
		}
		length := binary.BigEndian.Uint32(header[4:8])
		if length == 0 || length > maxRecordLen {
			return valid, true, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return valid, true, nil // torn payload
			}
			return valid, true, err
		}
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(header[8:12]) {
			return valid, true, nil
		}
		if err := fn(payload); err != nil {
			return valid, true, err
		}
		valid += int64(headerLen) + int64(length)
	}
}

// scanClean is ScanFrames plus the decode rule every log shares: a
// checksummed frame whose payload fn rejects ends the clean prefix
// exactly like a torn or corrupt frame. fn also learns each record's
// framed length. The only error is a genuine read failure.
func scanClean(r io.Reader, fn func(payload []byte, n int64) error) (valid int64, dropped bool, err error) {
	rejected := false
	valid, dropped, err = ScanFrames(r, func(payload []byte) error {
		err := fn(payload, headerLen+int64(len(payload)))
		rejected = err != nil
		return err
	})
	if rejected {
		return valid, true, nil
	}
	return valid, dropped, err
}

// compactMin is the log size below which Bloated never holds:
// compacting a small log is churn, not reclamation.
const compactMin = 1 << 20

// Log is one crash-safe, append-only log of framed records: the
// lifecycle store.log, memo.log and queue.log share. Its owner keeps
// only what is its own (record types, index, replay rules, what a
// compaction keeps); the Log alone opens, truncates, appends to,
// fsyncs and renames over the file. A Log is not safe for concurrent
// use; each owner serializes calls under its own lock.
//
// The crash contract:
//
//   - Open recovers exactly the longest clean prefix and truncates the
//     rest, so a crash mid-append costs at most the record in flight.
//   - An append that fails is rolled back to the clean end before the
//     next one, so a failed write can never strand later acknowledged
//     records behind torn bytes.
//   - A rewrite leaves the old log or the new one after a crash, never
//     a mixture, and a stale temporary file is simply overwritten.
type Log struct {
	path   string
	noSync bool
	// f is opened O_APPEND, so truncating it to size is all it takes
	// to put the next append at the clean end.
	f *os.File
	// out receives appends: f, unless a test injects write faults.
	out  io.Writer
	size int64 // clean length
	// err, once set, refuses every append: a failed append could not
	// be rolled back, or a rewrite could not reopen the renamed file.
	// A successful Rewrite replaces the file and clears it.
	err error
}

// OpenLog opens (creating if necessary) the log at path and replays
// its longest clean prefix through replay, one call per well-framed,
// checksummed record with the record's payload and framed length. A
// payload replay rejects ends the clean prefix like a CRC failure.
// The torn or corrupt tail, if any, is truncated away and reported as
// dropped. noSync skips the fsync after each append.
func OpenLog(path string, noSync bool, replay func(payload []byte, n int64) error) (l *Log, dropped bool, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, err
	}
	valid, dropped, err := scanClean(bufio.NewReader(f), replay)
	if err == nil && dropped {
		err = f.Truncate(valid)
	}
	if err != nil {
		f.Close()
		return nil, false, fmt.Errorf("opening %s: %w", path, err)
	}
	return &Log{path: path, noSync: noSync, f: f, out: f, size: valid}, dropped, nil
}

// Append frames payloads, writes them in one write, and fsyncs unless
// the log is noSync; it returns the framed bytes added. Every payload
// is framed before any byte is written, so an oversized one writes
// nothing. A failed write or sync is rolled back to the clean end; if
// the rollback fails too, the log refuses every further append.
func (l *Log) Append(payloads ...[]byte) (int64, error) {
	if l.err != nil {
		return 0, l.err
	}
	total := 0
	for _, p := range payloads {
		total += headerLen + len(p)
	}
	buf := make([]byte, 0, total)
	for _, p := range payloads {
		var err error
		if buf, err = appendFrame(buf, p); err != nil {
			return 0, err
		}
	}
	n, err := l.out.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err == nil && !l.noSync {
		err = l.f.Sync()
	}
	if err != nil {
		l.rollback()
		return 0, fmt.Errorf("appending to %s: %w", l.path, err)
	}
	l.size += int64(len(buf))
	return int64(len(buf)), nil
}

// rollback cuts the file back to the clean end after a failed append.
func (l *Log) rollback() {
	if err := l.f.Truncate(l.size); err != nil {
		l.err = fmt.Errorf("%s unusable after a failed append: %w", l.path, err)
	}
}

// Rewrite replaces the log's contents with the payloads emit passes to
// put, in order: they are framed into <path>.tmp, which is fsynced and
// atomically renamed over the log before the directory is synced and
// the log reopened at its new end.
func (l *Log) Rewrite(emit func(put func(payload []byte) error) error) error {
	tmp := l.path + ".tmp"
	tf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("rewriting %s: %w", l.path, err)
	}
	w := bufio.NewWriter(tf)
	var size int64
	var frame []byte
	err = emit(func(payload []byte) error {
		var err error
		if frame, err = appendFrame(frame[:0], payload); err != nil {
			return err
		}
		size += int64(len(frame))
		_, err = w.Write(frame)
		return err
	})
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rewriting %s: %w", l.path, err)
	}
	syncDir(filepath.Dir(l.path))
	// the old handle points at the replaced inode; swing to the new log
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		l.err = fmt.Errorf("reopening rewritten %s: %w", l.path, err)
		return l.err
	}
	l.f.Close()
	l.f, l.out, l.size, l.err = f, f, size, nil
	return nil
}

// Bloated reports whether the log is due for a rewrite, given the
// framed bytes its live records would occupy: the clean size exceeds
// compactMin and four times live. Keeping to it bounds a log at four
// times its live set once past the floor.
func (l *Log) Bloated(live int64) bool {
	return l.size > compactMin && l.size > 4*live
}

// Size returns the clean length of the log.
func (l *Log) Size() int64 { return l.size }

// Close fsyncs (unless noSync) and closes the log.
func (l *Log) Close() error {
	var err error
	if !l.noSync {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed file survives a crash;
// best-effort on filesystems that refuse directory syncs.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
