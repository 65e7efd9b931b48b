package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
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
// checkpoint grows after its header by appended records (see Journal).
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

// GetCheckpoint returns the header payload of id's checkpoint journal,
// or ok=false when there is none (or its header is corrupt: a bad
// checkpoint degrades to restarting the job from tick 0, exactly like no
// checkpoint at all).
func (s *Store) GetCheckpoint(id string) (header []byte, ok bool) {
	data, err := os.ReadFile(s.checkpointPath(id))
	if err != nil {
		return nil, false
	}
	header, _, ok = record(data)
	return header, ok
}

// PutCheckpoint starts id's checkpoint journal, replacing any it had,
// with header as its one record, written crash-safely.
func (s *Store) PutCheckpoint(id string, header []byte) error {
	return writeVerified(s.checkpointPath(id), header)
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

// Journal is a checkpoint journal, `<id>.ckpt`, open for appending: the
// header record PutCheckpoint wrote, then one record per finished cell,
// each framed like a store entry. A crash mid-append tears at most the
// last record, and its checksum shows it.
type Journal struct {
	Header []byte   // the header record's payload
	Cells  [][]byte // the verified cell records' payloads, in order
	f      *os.File
}

// OpenJournal opens id's checkpoint journal for appending. Only its
// verified prefix counts: the first record that does not verify ends
// it, and OpenJournal truncates the file there, so the next Append
// extends the prefix. It fails when there is no journal or its header
// does not verify.
func (s *Store) OpenJournal(id string) (_ *Journal, err error) {
	f, err := os.OpenFile(s.checkpointPath(id), os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("serve: journal read: %w", err)
	}
	header, rest, ok := record(data)
	if !ok {
		return nil, fmt.Errorf("serve: journal %s: header does not verify", id)
	}
	j := &Journal{Header: header, f: f}
	for len(rest) > 0 {
		cell, next, ok := record(rest)
		if !ok {
			// A torn tail. The next Append's fsync makes the cut durable
			// together with the record it writes.
			if err := f.Truncate(int64(len(data) - len(rest))); err != nil {
				return nil, fmt.Errorf("serve: journal truncate: %w", err)
			}
			break
		}
		j.Cells = append(j.Cells, cell)
		rest = next
	}
	return j, nil
}

// Append adds one record to the journal and syncs it: once Append
// returns, the record survives a crash.
func (j *Journal) Append(payload []byte) error {
	if _, err := j.f.Write(frame(payload)); err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	return nil
}

// Close closes the journal's file.
func (j *Journal) Close() error { return j.f.Close() }

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
