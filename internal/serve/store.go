package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store is the persistent result store: one directory per code version,
// one file per entry, every payload framed with its SHA-256 and length.
// Results and checkpoint headers are written crash-safely — payload to a
// temp file, fsync, atomic rename into place, fsync the directory — so a
// SIGKILL at any instant leaves either the old entry, the new entry, or
// a stray temp file, never a half-written entry under a live name. A
// checkpoint grows after its header by appended records (see Checkpoint).
// Reads verify the embedded SHA-256: a corrupt or truncated entry (torn
// disk, operator accident) is indistinguishable from a miss to callers,
// so the job simply re-simulates; corruption is never a 500.
type Store struct {
	dir string // <root>/v-<codeversion>
}

// storeMagic versions the on-disk entry framing.
const storeMagic = "tdstore1"

// OpenStore opens (creating if needed) the store rooted at dir for the
// given code version.
func OpenStore(dir, version string) (*Store, error) {
	vdir := filepath.Join(dir, "v-"+version)
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	return &Store{dir: vdir}, nil
}

// Dir reports the store's version directory (diagnostics, tests).
func (s *Store) Dir() string { return s.dir }

func (s *Store) resultPath(id string) string     { return filepath.Join(s.dir, id+".res") }
func (s *Store) checkpointPath(id string) string { return filepath.Join(s.dir, id+".ckpt") }

// GetResult returns the stored result payload for id, or ok=false on a
// miss — including the corrupt-entry case.
func (s *Store) GetResult(id string) (payload []byte, ok bool) {
	data, err := os.ReadFile(s.resultPath(id))
	if err != nil {
		return nil, false
	}
	payload, rest, ok := record(data)
	return payload, ok && len(rest) == 0
}

// PutResult persists a result payload crash-safely.
func (s *Store) PutResult(id string, payload []byte) error {
	return writeVerified(s.resultPath(id), payload)
}

// DeleteCheckpoint removes id's checkpoint (after its result landed).
func (s *Store) DeleteCheckpoint(id string) {
	os.Remove(s.checkpointPath(id))
}

// Checkpoints lists the job IDs with a checkpoint on disk, sorted — the
// jobs a restarted server must resume.
func (s *Store) Checkpoints() []string {
	names, err := filepath.Glob(filepath.Join(s.dir, "*.ckpt"))
	if err != nil {
		return nil
	}
	ids := make([]string, 0, len(names))
	for _, n := range names {
		ids = append(ids, strings.TrimSuffix(filepath.Base(n), ".ckpt"))
	}
	// Glob sorts, but do not depend on it: restart order feeds the queue.
	sort.Strings(ids)
	return ids
}

// Checkpoint is a job's durable restart state, its journal
// `<id>.ckpt`: a header record holding the canonical request, written at
// admission (so a queued-but-unstarted job survives a crash too:
// accepted is never silently dropped), then one CellResult record per
// finished cell, each framed like a store entry. A crash mid-append
// tears at most the last record, and its checksum shows it. Because the
// simulator is deterministic, completed-cell results ARE a sufficient
// checkpoint — resuming means filtering those cells out of the sweep,
// not replaying a simulator snapshot.
//
// A Checkpoint belongs to one job, and only its run touches it: the
// journal opens for appending at the first Add and closes at Close.
type Checkpoint struct {
	Request Request
	Cells   map[string]CellResult // by cellKey

	path string
	f    *os.File // nil until the first Add
}

// CreateCheckpoint starts id's journal with req as its header, written
// crash-safely, replacing any journal id had.
func (s *Store) CreateCheckpoint(id string, req Request) (*Checkpoint, error) {
	path := s.checkpointPath(id)
	if err := writeVerified(path, marshalJSON(&req)); err != nil {
		return nil, err
	}
	return &Checkpoint{Request: req, Cells: make(map[string]CellResult), path: path}, nil
}

// OpenCheckpoint reads id's journal back. Only its verified prefix
// counts: the first record that does not verify ends it, and
// OpenCheckpoint truncates the file there, so the next Add extends the
// prefix. It fails when there is no journal, when its header does not
// verify or is not id's canonical request (a foreign or tampered entry),
// or when a verified cell record does not decode.
func (s *Store) OpenCheckpoint(id string) (*Checkpoint, error) {
	path := s.checkpointPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	header, rest, ok := record(data)
	if !ok {
		return nil, fmt.Errorf("serve: checkpoint %s: header does not verify", id)
	}
	ck := &Checkpoint{Cells: make(map[string]CellResult), path: path}
	if err := json.Unmarshal(header, &ck.Request); err != nil {
		return nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	// The stored request is already canonical, but re-canonicalizing is
	// cheap and guards against a hand-edited store directory.
	if err := ck.Request.Canonicalize(); err != nil {
		return nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	if ck.Request.ID() != id {
		return nil, fmt.Errorf("serve: checkpoint %s holds request %s", id, ck.Request.ID())
	}
	for len(rest) > 0 {
		rec, next, ok := record(rest)
		if !ok {
			// A torn tail. The next Add's fsync makes the cut durable
			// together with the record it writes.
			if err := os.Truncate(path, int64(len(data)-len(rest))); err != nil {
				return nil, fmt.Errorf("serve: checkpoint truncate: %w", err)
			}
			break
		}
		var c CellResult
		if err := json.Unmarshal(rec, &c); err != nil {
			return nil, fmt.Errorf("serve: checkpoint cell: %w", err)
		}
		ck.Cells[cellKey(c.Workload, c.Design)] = c
		rest = next
	}
	return ck, nil
}

// Add records a finished cell in ck.Cells, then appends its record to
// the journal and syncs it: once Add returns nil, the cell survives a
// crash.
func (ck *Checkpoint) Add(c CellResult) error {
	ck.Cells[cellKey(c.Workload, c.Design)] = c
	if ck.f == nil {
		f, err := os.OpenFile(ck.path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return fmt.Errorf("serve: checkpoint: %w", err)
		}
		ck.f = f
	}
	if _, err := ck.f.Write(frame(marshalJSON(&c))); err != nil {
		return fmt.Errorf("serve: checkpoint append: %w", err)
	}
	if err := ck.f.Sync(); err != nil {
		return fmt.Errorf("serve: checkpoint sync: %w", err)
	}
	return nil
}

// Close closes the journal's file, if Add opened it. Every record Add
// wrote is already synced.
func (ck *Checkpoint) Close() error {
	if ck.f == nil {
		return nil
	}
	return ck.f.Close()
}

// marshalJSON encodes a checkpoint record: the request or a cell, both
// structs, so the bytes are deterministic.
func marshalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: checkpoint record does not marshal: %v", err))
	}
	return b
}

// frame returns payload framed as one store record:
// "tdstore1 <sha256-hex> <len>\n" followed by the payload.
func frame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	b := make([]byte, 0, len(storeMagic)+len(sum)*2+24+len(payload))
	b = append(b, storeMagic+" "...)
	b = hex.AppendEncode(b, sum[:])
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(payload)), 10)
	b = append(b, '\n')
	return append(b, payload...)
}

// record parses the framed record at the front of data. It returns the
// payload and the bytes after it, both subslices of data (nothing is
// copied), and ok=false when the frame, length or checksum does not
// verify — truncation, corruption, a foreign file.
func record(data []byte) (payload, rest []byte, ok bool) {
	const sumAt = len(storeMagic) + 1
	const lenAt = sumAt + 2*sha256.Size + 1
	nl := bytes.IndexByte(data, '\n')
	if nl < lenAt+1 || string(data[:sumAt]) != storeMagic+" " || data[lenAt-1] != ' ' {
		return nil, nil, false
	}
	var sum [sha256.Size]byte
	if _, err := hex.Decode(sum[:], data[sumAt:lenAt-1]); err != nil {
		return nil, nil, false
	}
	n, err := strconv.Atoi(string(data[lenAt:nl]))
	body := data[nl+1:]
	if err != nil || n < 0 || n > len(body) {
		return nil, nil, false
	}
	payload = body[:n:n]
	if sha256.Sum256(payload) != sum {
		return nil, nil, false
	}
	return payload, body[n:], true
}

// writeVerified writes a framed entry crash-safely: temp file in the
// same directory, fsync, rename over the final name, fsync the
// directory so the rename itself is durable.
func writeVerified(path string, payload []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: store write: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(frame(payload)); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: store write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: store sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: store close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("serve: store rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
