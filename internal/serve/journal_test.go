package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"tdram/internal/experiments"
)

// TestRecordParsesWithoutCopying: a journal's records parse in place,
// every payload a subslice of the one buffer, without allocating.
func TestRecordParsesWithoutCopying(t *testing.T) {
	payloads := [][]byte{[]byte(`{"workloads":["bt.C"]}`), []byte(`{"design":"tdram"}`), {}}
	var data []byte
	for _, p := range payloads {
		data = append(data, frame(p)...)
	}
	rest := data
	for i, want := range payloads {
		got, next, ok := record(rest)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("record %d = %q ok=%v, want %q", i, got, ok, want)
		}
		if len(got) > 0 && &got[0] != &rest[len(rest)-len(next)-len(got)] {
			t.Errorf("record %d payload is a copy, not a subslice", i)
		}
		rest = next
	}
	if len(rest) != 0 {
		t.Errorf("%d bytes left after the last record", len(rest))
	}
	if _, _, ok := record(data[:len(data)-1]); !ok {
		t.Error("a torn later record spoiled the first")
	}
	if _, _, ok := record(frame(payloads[0])[:30]); ok {
		t.Error("a torn record verified")
	}
	if n := testing.AllocsPerRun(100, func() {
		for r := data; len(r) > 0; {
			_, r, _ = record(r)
		}
	}); n != 0 {
		t.Errorf("parsing a journal allocates %v times, want 0", n)
	}
}

// tearRecord appends the first half of payload's record to id's
// journal, as a crash in the middle of an append leaves it.
func tearRecord(t *testing.T, st *Store, id string, payload []byte) {
	t.Helper()
	f, err := os.OpenFile(st.checkpointPath(id), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := frame(payload)
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// journalCells counts the verified cell records in id's journal.
func journalCells(t *testing.T, st *Store, id string) int {
	t.Helper()
	ck, err := st.OpenCheckpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	return len(ck.Cells)
}

// TestTornJournalResumes: a journal holding its header, two cell records
// and half of a third resumes with two cells; the cells the restarted
// job appends survive a second crash, and the job finishes with a
// document byte-identical to an uninterrupted run's.
func TestTornJournalResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	req := slowRequest()
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	id := req.ID()

	resumed := make(chan int, 3) // one per sweep: the reference and two restarts
	real := runMatrix
	runMatrix = func(sc experiments.Scale, opts experiments.MatrixOptions) (*experiments.Matrix, error) {
		n := 0
		for _, wl := range sc.Workloads {
			for _, d := range experiments.MatrixDesigns() {
				if !opts.Filter(experiments.Key{Design: d, Workload: wl.Name}) {
					n++
				}
			}
		}
		resumed <- n
		return real(sc, opts)
	}
	defer func() { runMatrix = real }()

	ref := newTestServer(t, t.TempDir(), nil)
	j, err := ref.Admit(id, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != StateDone {
		t.Fatalf("reference job ended %s: %+v", st, j.Status())
	}
	<-resumed
	want, ok := ref.Store().GetResult(id)
	if !ok {
		t.Fatal("reference result missing from store")
	}
	var doc ResultDoc
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}

	// Crash 1, staged: two cells recorded, the third torn.
	dir := t.TempDir()
	st, err := OpenStore(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := st.CreateCheckpoint(id, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range doc.Cells[:2] {
		if err := ck.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	tearRecord(t, st, id, marshalJSON(&doc.Cells[2]))

	// Restart 1 resumes with the two cells; shut it down after it has
	// recorded one more (serial cells, so the rest are still pending).
	s1, err := NewServer(Config{Dir: dir, Version: "test", SimTokens: 1})
	if err != nil {
		t.Fatal(err)
	}
	j1, ok := s1.Job(id)
	if !ok {
		t.Fatal("restarted server did not recover the torn-journal job")
	}
	ch, cancelSub := j1.Subscribe()
	deadline := time.After(120 * time.Second)
wait:
	for {
		select {
		case <-deadline:
			t.Fatalf("no cell completed: %+v", j1.Status())
		case ev := <-ch:
			if ev.Type == "cell" {
				break wait
			}
		}
	}
	cancelSub()
	if n := <-resumed; n != 2 {
		t.Errorf("first restart resumed with %d cells, want 2", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if st := j1.Status().State; st != StateInterrupted {
		t.Fatalf("job state after shutdown = %s, want %s", st, StateInterrupted)
	}
	kept := journalCells(t, st, id)
	if kept <= 2 || kept >= len(doc.Cells) {
		t.Fatalf("journal holds %d cells after the first restart, want 3..%d", kept, len(doc.Cells)-1)
	}

	// Crash 2 tears the next record; restart 2 keeps every cell appended
	// after restart 1 and finishes the job.
	tearRecord(t, st, id, marshalJSON(&doc.Cells[len(doc.Cells)-1]))
	s2 := newTestServer(t, dir, nil)
	j2, ok := s2.Job(id)
	if !ok {
		t.Fatal("second restart did not recover the job")
	}
	if st := waitTerminal(t, j2); st != StateDone {
		t.Fatalf("recovered job ended %s: %+v", st, j2.Status())
	}
	if n := <-resumed; n != kept {
		t.Errorf("second restart resumed with %d cells, want the %d recorded", n, kept)
	}
	got, ok := s2.Store().GetResult(id)
	if !ok {
		t.Fatal("recovered job produced no result")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from an uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if _, err := s2.Store().OpenCheckpoint(id); err == nil {
		t.Error("checkpoint not cleaned up after completion")
	}
}
