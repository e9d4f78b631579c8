// Package ckptstore is the durable checkpoint log. Every checkpoint the
// engine takes (anticipatory memory management's durable copies) is
// appended to one file, <dir>/log, as a fixed-size record naming the
// partition and its shape at checkpoint time:
//
//	chain u64 | part u32 | rows u64 | virtualBytes u64 | crc32 u32
//
// all big-endian, the CRC (IEEE) covering the 28 bytes before it. The log
// holds no row data: the simulation charges checkpoint I/O in virtual
// time, and crash recovery only needs to know whether a durable copy
// still verifies. Restart recovery re-executes jobs from the service
// journal, so no entry is ever read across runs, and rows cannot be
// restored from the log.
//
// Keys are the spec chain-prefix hash of the producing operator plus the
// partition index (internal/spec). Put returns the record's offset;
// callers keep the offsets they need for as long as they need them — the
// engine holds them per run — and Get reads back exactly that record.
// A short read, CRC mismatch or wrong key is a *MissError, never data:
// the engine then re-derives the partition by lineage, as it would for
// an absent checkpoint.
//
// Appends are not fsynced: a crash may tear the tail, and Open drops a
// partial trailing record so the next Put lands on a record boundary.
package ckptstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
)

// Key addresses one durable partition: the chain-prefix hash of the
// producing operator and the partition index.
type Key struct {
	Chain spec.Hash
	Part  int
}

func (k Key) String() string { return fmt.Sprintf("%s/p%d", k.Chain, k.Part) }

// Entry is one checkpoint record: the partition and its row count and
// simulated size when it was checkpointed.
type Entry struct {
	Key          Key
	Rows         int64
	VirtualBytes sim.Bytes
}

// MissError reports that an entry could not be loaded — absent or
// damaged. Callers treat both identically: re-derive from lineage.
type MissError struct {
	Key    Key
	Reason string
}

func (e *MissError) Error() string {
	return fmt.Sprintf("ckptstore: miss %s: %s", e.Key, e.Reason)
}

// IsMiss reports whether err is a load miss (absent or corrupt entry).
func IsMiss(err error) bool {
	var m *MissError
	return errors.As(err, &m)
}

// RecordLen is the size of one log record in bytes.
const RecordLen = 32

// Record layout: keyLen bytes of key come first, and the CRC sits at
// crcOff. The injectors flip bits only after the key, so Keys reads the
// same key set before and after an injected fault.
const (
	keyLen  = 12
	crcOff  = 28
	logName = "log"
)

func encode(e Entry) [RecordLen]byte {
	var b [RecordLen]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(e.Key.Chain))
	binary.BigEndian.PutUint32(b[8:12], uint32(e.Key.Part))
	binary.BigEndian.PutUint64(b[12:20], uint64(e.Rows))
	binary.BigEndian.PutUint64(b[20:28], uint64(e.VirtualBytes))
	binary.BigEndian.PutUint32(b[crcOff:], crc32.ChecksumIEEE(b[:crcOff]))
	return b
}

// keyOf reads a record's key fields without verifying its CRC.
func keyOf(b []byte) Key {
	return Key{Chain: spec.Hash(binary.BigEndian.Uint64(b[0:8])), Part: int(binary.BigEndian.Uint32(b[8:12]))}
}

// decode verifies a record's CRC and returns its entry.
func decode(b []byte) (Entry, bool) {
	if crc32.ChecksumIEEE(b[:crcOff]) != binary.BigEndian.Uint32(b[crcOff:]) {
		return Entry{}, false
	}
	return Entry{
		Key:          keyOf(b),
		Rows:         int64(binary.BigEndian.Uint64(b[12:20])),
		VirtualBytes: sim.Bytes(binary.BigEndian.Uint64(b[20:28])),
	}, true
}

// Store is one checkpoint log. Put, Get and CorruptEntry are safe for
// concurrent use between Open and Close.
type Store struct {
	dir string

	mu   sync.Mutex
	f    *os.File
	tail int64
}

// New prepares a store rooted at dir. No I/O happens until Open.
func New(dir string) *Store { return &Store{dir: dir} }

func (s *Store) path() string { return filepath.Join(s.dir, logName) }

// Open creates the directory and log if needed and drops a torn tail
// shorter than one record, so appends resume on a record boundary.
func (s *Store) Open() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		return fmt.Errorf("ckptstore: already open")
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(s.path(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	tail := info.Size() - info.Size()%RecordLen
	if tail != info.Size() {
		if err := f.Truncate(tail); err != nil {
			f.Close()
			return err
		}
	}
	s.f, s.tail = f, tail
	return nil
}

// Close releases the log handle. Records stay on disk.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Put appends e's record at the log's tail and returns its offset. A
// failed write leaves the tail where it was, so the next Put overwrites
// whatever part of the record reached the file.
func (s *Store) Put(e Entry) (int64, error) {
	rec := encode(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, fmt.Errorf("ckptstore: put on closed store")
	}
	off := s.tail
	if _, err := s.f.WriteAt(rec[:], off); err != nil {
		return 0, err
	}
	s.tail += RecordLen
	return off, nil
}

// Get reads the record at off and checks that it verifies and belongs to
// k. A negative offset means the caller holds none for k. Every failure
// is a *MissError.
func (s *Store) Get(k Key, off int64) (Entry, error) {
	var b [RecordLen]byte
	if reason := s.read(off, b[:]); reason != "" {
		return Entry{}, &MissError{Key: k, Reason: reason}
	}
	e, ok := decode(b[:])
	if !ok {
		return Entry{}, &MissError{Key: k, Reason: fmt.Sprintf("checksum mismatch at offset %d", off)}
	}
	if e.Key != k {
		return Entry{}, &MissError{Key: k, Reason: fmt.Sprintf("offset %d holds %s", off, e.Key)}
	}
	return e, nil
}

// read fills b with the record at off, or says why it cannot.
func (s *Store) read(off int64, b []byte) string {
	if off < 0 {
		return "absent"
	}
	if off%RecordLen != 0 {
		return fmt.Sprintf("offset %d is not a record boundary", off)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return "store closed"
	}
	if _, err := s.f.ReadAt(b, off); err != nil {
		return err.Error()
	}
	return ""
}

// CorruptEntry flips one bit in the record at off, after its key — the
// load-time corruption injector behind faults.CkptFlip. bit is taken
// modulo the flippable width. A negative offset (no record) is a no-op:
// the load misses anyway.
func (s *Store) CorruptEntry(off int64, bit int) error {
	if bit < 0 {
		return fmt.Errorf("ckptstore: CorruptEntry bit %d", bit)
	}
	if off < 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("ckptstore: corrupt on closed store")
	}
	return flipBit(s.f, off, bit)
}

// flipBit flips bit (modulo the bits past the key) of the record at off.
func flipBit(f *os.File, off int64, bit int) error {
	var b [1]byte
	i := keyLen*8 + bit%((RecordLen-keyLen)*8)
	at := off + int64(i/8)
	if _, err := f.ReadAt(b[:], at); err != nil {
		return err
	}
	b[0] ^= 1 << (i % 8)
	_, err := f.WriteAt(b[:], at)
	return err
}

// scan reads every whole record of the log and returns the distinct
// keys in sorted order (chain hash, then partition) with the offset of
// each key's newest record. Damaged records are listed too; damage
// surfaces on Get.
func scan(f *os.File) ([]Key, map[Key]int64, error) {
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, err
	}
	newest := make(map[Key]int64)
	var keys []Key
	for off := 0; off+RecordLen <= len(b); off += RecordLen {
		k := keyOf(b[off : off+RecordLen])
		if _, seen := newest[k]; !seen {
			keys = append(keys, k)
		}
		newest[k] = int64(off)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Chain != keys[j].Chain {
			return keys[i].Chain < keys[j].Chain
		}
		return keys[i].Part < keys[j].Part
	})
	return keys, newest, nil
}

// Keys lists the distinct keys recorded in the log, sorted. It reads the
// file directly and works whether or not the store is open.
func (s *Store) Keys() ([]Key, error) {
	f, err := os.Open(s.path())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keys, _, err := scan(f)
	return keys, err
}

// CorruptNth flips one bit in the newest record of the idx-th key in
// Keys() order — the on-disk corruption injector of the crash-restart
// oracle. bit is taken modulo the bits past the key. Like Keys it works
// on a closed store.
func (s *Store) CorruptNth(idx, bit int) error {
	if bit < 0 {
		return fmt.Errorf("ckptstore: CorruptNth bit %d", bit)
	}
	f, err := os.OpenFile(s.path(), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	keys, newest, err := scan(f)
	if err != nil {
		return err
	}
	if idx < 0 || idx >= len(keys) {
		return fmt.Errorf("ckptstore: CorruptNth %d of %d entries", idx, len(keys))
	}
	return flipBit(f, newest[keys[idx]], bit)
}
