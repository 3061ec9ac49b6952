// Package wal implements a minimal append-only write-ahead log with
// CRC-framed records, used by the Ignem master to journal migration
// state so a restart resumes in-flight work instead of re-deriving it.
//
// A Log frames each payload as
//
//	[4B little-endian payload length][4B CRC32C of payload][payload]
//
// and appends the frame to a Backend in one call. Replay decodes the
// backend's contents front to back and stops silently at the first
// torn or corrupt record: after a crash mid-append the tail is garbage
// by design, and everything before it is intact (each record's CRC
// covers its own payload).
//
// Two backends ship: FileBackend persists to a file under a directory
// the caller owns, and MemBackend keeps the log in memory with a
// crash-injection hook (CrashAfter) that the chaos suite uses to kill
// the master at every record boundary.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// ErrCrashed is returned by a MemBackend append once its injected
// crash point is reached; the writer must treat it as a process death.
var ErrCrashed = errors.New("wal: crashed")

// castagnoli is the CRC32C table shared by record framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const headerSize = 8 // 4B length + 4B crc

// Backend is the byte store under a Log. Append must be atomic with
// respect to Replay reading the same backend (a Log serializes its own
// calls; a Backend shared across Logs needs its own locking, which
// both shipped backends provide).
type Backend interface {
	// Append adds b at the end of the log.
	Append(b []byte) error
	// ReadAll returns the log's current contents. The returned slice
	// must remain valid until the next Append or Truncate.
	ReadAll() ([]byte, error)
	// Truncate discards everything.
	Truncate() error
	// Close releases resources. The backend is unusable afterwards.
	Close() error
}

// Log frames payloads into CRC-checked records over a Backend. Safe
// for concurrent use.
type Log struct {
	mu      sync.Mutex
	be      Backend
	scratch []byte
}

// New wraps a backend in a record-framing log.
func New(be Backend) *Log { return &Log{be: be} }

// Append frames payload and appends it durably. On error nothing is
// guaranteed about the tail: Replay on the surviving contents returns
// every record appended before the failure.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	need := headerSize + len(payload)
	if cap(l.scratch) < need {
		l.scratch = make([]byte, 0, need*2)
	}
	buf := l.scratch[:headerSize]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, payload...)
	if err := l.be.Append(buf); err != nil {
		return err
	}
	return nil
}

// Replay decodes the backend's records front to back, calling fn with
// each payload in append order, and returns how many records were
// delivered. The payload slice aliases the backend's buffer and must
// not be retained past fn's return. Decoding stops silently at the
// first torn or CRC-corrupt record (the normal shape of a crashed
// tail); an error from fn aborts the replay and is returned.
func (l *Log) Replay(fn func(payload []byte) error) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := l.be.ReadAll()
	if err != nil {
		return 0, err
	}
	n := 0
	for len(data) >= headerSize {
		size := binary.LittleEndian.Uint32(data[0:4])
		sum := binary.LittleEndian.Uint32(data[4:8])
		if uint64(headerSize)+uint64(size) > uint64(len(data)) {
			break // torn tail
		}
		payload := data[headerSize : headerSize+int(size)]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // corrupt tail
		}
		if err := fn(payload); err != nil {
			return n, err
		}
		n++
		data = data[headerSize+int(size):]
	}
	return n, nil
}

// Truncate discards every record (the journal's live set is empty, so
// nothing needs replaying).
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.be.Truncate(); err != nil {
		return err
	}
	return nil
}

// Close closes the underlying backend.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.be.Close()
}

// ---- file backend ----

// FileBackend persists the log to a single file. Appends go through an
// O_APPEND descriptor, so a crashed process leaves at most one torn
// record at the tail.
type FileBackend struct {
	mu   sync.Mutex
	path string
	f    *os.File
	buf  []byte // ReadAll cache, invalidated by Append/Truncate
}

// OpenFile opens (creating if needed) the log file at dir/name.
func OpenFile(dir, name string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &FileBackend{path: path, f: f}, nil
}

// Append writes b at the end of the file.
func (b *FileBackend) Append(p []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return fmt.Errorf("wal: backend closed")
	}
	b.buf = nil
	_, err := b.f.Write(p)
	return err
}

// ReadAll returns the file's contents.
func (b *FileBackend) ReadAll() ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf != nil {
		return b.buf, nil
	}
	data, err := os.ReadFile(b.path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	b.buf = data
	return data, nil
}

// Truncate empties the file.
func (b *FileBackend) Truncate() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return fmt.Errorf("wal: backend closed")
	}
	b.buf = nil
	return b.f.Truncate(0)
}

// Close closes the file.
func (b *FileBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return nil
	}
	err := b.f.Close()
	b.f = nil
	return err
}

// ---- memory backend ----

// MemBackend keeps the log in memory, with an injectable crash point
// for chaos tests: CrashAfter(k) lets exactly k more appends become
// durable and fails every later one with ErrCrashed, modelling a
// process that dies at that record boundary. Revive clears the crash
// while keeping the surviving contents, so a recovery path can replay
// exactly what a restarted master would find on disk.
type MemBackend struct {
	mu      sync.Mutex
	buf     []byte
	crash   bool  // appends fail now
	fuse    int64 // appends remaining before crash; -1 = no fuse
	appends int64
}

// NewMem returns an empty in-memory backend with no crash scheduled.
func NewMem() *MemBackend { return &MemBackend{fuse: -1} }

// CrashAfter arranges for exactly k more appends to succeed; the next
// one (and all after it, until Revive) fails with ErrCrashed and
// writes nothing. k=0 crashes on the very next append.
func (b *MemBackend) CrashAfter(k int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fuse = k
	b.crash = false
}

// Revive clears the crash state, keeping the surviving contents.
func (b *MemBackend) Revive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.crash = false
	b.fuse = -1
}

// Crashed reports whether the crash point has been reached (appends
// are currently failing). Chaos sweeps use it to decide whether a run
// actually needs recovery.
func (b *MemBackend) Crashed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.crash
}

// Appends reports how many appends have succeeded over the backend's
// lifetime.
func (b *MemBackend) Appends() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.appends
}

// Append adds p, unless the crash point has been reached.
func (b *MemBackend) Append(p []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crash {
		return ErrCrashed
	}
	if b.fuse == 0 {
		b.crash = true
		return ErrCrashed
	}
	if b.fuse > 0 {
		b.fuse--
	}
	b.buf = append(b.buf, p...)
	b.appends++
	return nil
}

// ReadAll returns the surviving contents. Reading is always allowed,
// even mid-crash: recovery reads what a restarted process would find.
func (b *MemBackend) ReadAll() ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf, nil
}

// Truncate empties the backend.
func (b *MemBackend) Truncate() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crash {
		return ErrCrashed
	}
	b.buf = b.buf[:0]
	return nil
}

// Close is a no-op for the memory backend.
func (b *MemBackend) Close() error { return nil }
