package ckptstore

import (
	"os"
	"path/filepath"
	"testing"

	"metadataflow/internal/spec"
)

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s := New(dir)
	if err := s.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func put(t *testing.T, s *Store, e Entry) int64 {
	t.Helper()
	off, err := s.Put(e)
	if err != nil {
		t.Fatalf("Put %s: %v", e.Key, err)
	}
	return off
}

// flipFileBit flips bit i of the log file at dir.
func flipFileBit(t *testing.T, dir string, i int64) {
	t.Helper()
	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[i/8] ^= 1 << (i % 8)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "ckpt"))
	entries := []Entry{
		{Key: Key{Chain: spec.Hash(0xdeadbeefcafe0123), Part: 2}, Rows: 1500, VirtualBytes: 4 << 20},
		{Key: Key{Chain: spec.Hash(0xdeadbeefcafe0123), Part: 3}, Rows: 7, VirtualBytes: 1 << 40},
	}
	var offs []int64
	for _, e := range entries {
		offs = append(offs, put(t, s, e))
	}
	for i, e := range entries {
		if want := int64(i * RecordLen); offs[i] != want {
			t.Fatalf("record %d at offset %d, want %d", i, offs[i], want)
		}
		got, err := s.Get(e.Key, offs[i])
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got != e {
			t.Fatalf("Get = %+v, want %+v", got, e)
		}
	}
}

// TestEmptyPayload round-trips the record of an empty partition.
func TestEmptyPayload(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "ckpt"))
	e := Entry{Key: Key{Chain: spec.Hash(3), Part: 0}}
	got, err := s.Get(e.Key, put(t, s, e))
	if err != nil || got != e {
		t.Fatalf("Get = %+v, %v", got, err)
	}
}

func TestGetAbsentIsMiss(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "ckpt"))
	k := Key{Chain: 1, Part: 0}
	for _, off := range []int64{-1, 0, RecordLen, 5} {
		if _, err := s.Get(k, off); !IsMiss(err) {
			t.Fatalf("Get at %d on an empty log: error %v, want miss", off, err)
		}
	}
	off := put(t, s, Entry{Key: k, Rows: 1})
	if _, err := s.Get(k, off+RecordLen); !IsMiss(err) {
		t.Fatalf("Get past the tail: error %v, want miss", err)
	}
	if _, err := s.Get(k, off+1); !IsMiss(err) {
		t.Fatalf("Get off a record boundary: error %v, want miss", err)
	}
}

// TestBitFlipAnywhereIsMiss flips every bit of a record in turn: each
// damaged record must read as a miss, never as an entry.
func TestBitFlipAnywhereIsMiss(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	s := openStore(t, dir)
	e := Entry{Key: Key{Chain: spec.Hash(0x0123456789abcdef), Part: 5}, Rows: 99, VirtualBytes: 12345}
	put(t, s, e)
	off := put(t, s, e)
	for i := int64(0); i < RecordLen*8; i++ {
		flipFileBit(t, dir, off*8+i)
		if got, err := s.Get(e.Key, off); !IsMiss(err) {
			t.Fatalf("bit %d flipped: Get = %+v, %v; want miss", i, got, err)
		}
		flipFileBit(t, dir, off*8+i)
	}
	if _, err := s.Get(e.Key, off); err != nil {
		t.Fatalf("restored record: %v", err)
	}
}

func TestWrongKeyIsMiss(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "ckpt"))
	k := Key{Chain: spec.Hash(42), Part: 1}
	off := put(t, s, Entry{Key: k, Rows: 3})
	for _, other := range []Key{{Chain: spec.Hash(42), Part: 2}, {Chain: spec.Hash(43), Part: 1}} {
		if _, err := s.Get(other, off); !IsMiss(err) {
			t.Fatalf("Get %s at %s's offset: error %v, want miss", other, k, err)
		}
	}
}

func TestCorruptionIsMissAndPutHeals(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "ckpt"))
	e := Entry{Key: Key{Chain: spec.Hash(42), Part: 0}, Rows: 10, VirtualBytes: 1 << 20}
	off := put(t, s, e)
	if err := s.CorruptEntry(off, 13); err != nil {
		t.Fatalf("CorruptEntry: %v", err)
	}
	if _, err := s.Get(e.Key, off); !IsMiss(err) {
		t.Fatalf("corrupt Get error %v, want miss", err)
	}
	if err := s.CorruptEntry(-1, 13); err != nil {
		t.Fatalf("CorruptEntry without a record: %v", err)
	}
	// A re-derived partition appends a fresh record that verifies.
	healed := put(t, s, e)
	if got, err := s.Get(e.Key, healed); err != nil || got != e {
		t.Fatalf("healed Get = %+v, %v", got, err)
	}
	// CorruptNth damages the key's newest record, on a closed store too.
	s.Close()
	if err := s.CorruptNth(0, 200); err != nil {
		t.Fatalf("CorruptNth: %v", err)
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(e.Key, healed); !IsMiss(err) {
		t.Fatalf("CorruptNth left the newest record readable: %v", err)
	}
	if keys, err := s.Keys(); err != nil || len(keys) != 1 || keys[0] != e.Key {
		t.Fatalf("Keys after corruption = %v, %v; want [%s]", keys, err, e.Key)
	}
}

// TestTruncatedEntryIsMiss tears the log's last record: Get at its
// offset misses, and reopening drops the partial record so the next Put
// lands on a record boundary.
func TestTruncatedEntryIsMiss(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	s := openStore(t, dir)
	first := Entry{Key: Key{Chain: spec.Hash(7), Part: 1}, Rows: 4}
	k := Key{Chain: spec.Hash(7), Part: 2}
	put(t, s, first)
	off := put(t, s, Entry{Key: k, Rows: 5})
	path := filepath.Join(dir, logName)
	if err := os.Truncate(path, off+RecordLen-3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(k, off); !IsMiss(err) {
		t.Fatalf("torn Get error %v, want miss", err)
	}
	s.Close()
	if err := s.Open(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != off {
		t.Fatalf("reopened log: %v, %v; want %d bytes", info, err, off)
	}
	e := Entry{Key: k, Rows: 6}
	if next := put(t, s, e); next != off {
		t.Fatalf("Put after torn tail at %d, want %d", next, off)
	}
	if got, err := s.Get(k, off); err != nil || got != e {
		t.Fatalf("Get after reopen = %+v, %v", got, err)
	}
	if _, err := s.Get(first.Key, 0); err != nil {
		t.Fatalf("record before the tear: %v", err)
	}
}

// TestKeysSortedAndSkipsStrays checks that Keys lists each key once, in
// sorted order, however often it was appended, and ignores a torn tail
// and other files in the directory.
func TestKeysSortedAndSkipsStrays(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	s := openStore(t, dir)
	want := []Key{
		{Chain: spec.Hash(0x10), Part: 0},
		{Chain: spec.Hash(0x10), Part: 3},
		{Chain: spec.Hash(0xff), Part: 1},
	}
	for _, i := range []int{2, 0, 1, 2, 0, 2} {
		put(t, s, Entry{Key: want[i], Rows: int64(i)})
	}
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, RecordLen-1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Keys()
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if keys, err := New(filepath.Join(t.TempDir(), "none")).Keys(); err != nil || keys != nil {
		t.Fatalf("Keys of a missing log = %v, %v", keys, err)
	}
}
