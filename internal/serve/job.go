package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"tdram/internal/experiments"
	"tdram/internal/system"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: admitted, checkpointed, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is simulating its cells.
	StateRunning State = "running"
	// StateDone: the result landed in the store.
	StateDone State = "done"
	// StateFailed: the job cannot produce a result (bad cell, deadline,
	// worker panic). The error is in Job.Status().Error.
	StateFailed State = "failed"
	// StateInterrupted: shutdown cancelled the job mid-run; its
	// checkpoint holds the finished cells and a restarted server will
	// resume it.
	StateInterrupted State = "interrupted"
)

// CellResult is the curated, deterministic summary of one (design,
// workload) cell. It holds only values that are bit-identical between a
// fresh run and a checkpoint-resumed one, so the final document is
// byte-identical however the job got to completion.
type CellResult struct {
	Design   string `json:"design"`
	Workload string `json:"workload"`

	RuntimeTicks int64  `json:"runtime_ticks"`
	Accesses     uint64 `json:"accesses"`

	Throughput    float64 `json:"throughput_apus"` // accesses per microsecond
	MissRatio     float64 `json:"miss_ratio"`
	TagCheckNS    float64 `json:"tag_check_ns"`
	ReadLatencyNS float64 `json:"read_latency_ns"`
	BloatFactor   float64 `json:"bloat_factor"`
	EnergyJ       float64 `json:"energy_j"`
}

func cellResultFrom(k experiments.Key, res *system.Result) CellResult {
	return CellResult{
		Design:        k.Design.String(),
		Workload:      k.Workload,
		RuntimeTicks:  int64(res.Runtime),
		Accesses:      res.Accesses,
		Throughput:    res.Throughput(),
		MissRatio:     res.Cache.Outcomes.MissRatio(),
		TagCheckNS:    res.Cache.TagCheck.Value(),
		ReadLatencyNS: res.Cache.ReadLatency.Value(),
		BloatFactor:   res.Cache.BloatFactor(),
		EnergyJ:       res.Energy.Total(),
	}
}

// cellKey names one cell inside a checkpoint.
func cellKey(workload, design string) string { return workload + "|" + design }

// ResultDoc is the response document for a completed job. Its encoding
// is canonical — cells in (workload, design) sweep order, struct fields
// in declaration order — so every run of the same configuration under
// the same code version produces the same bytes, and the store can be
// compared byte-for-byte across restarts.
type ResultDoc struct {
	ID          string       `json:"id"`
	CodeVersion string       `json:"code_version"`
	Request     Request      `json:"request"`
	Cells       []CellResult `json:"cells"`
}

// buildDoc assembles the canonical result document from a completed
// checkpoint. Cancellation can leave a checkpoint's cells in any subset
// order (a cell in flight at the cancel still lands), so the document
// sorts them into canonical (workload, design) sweep order rather than
// trusting insertion history.
func buildDoc(id, version string, ck *Checkpoint) ([]byte, error) {
	designPos := make(map[string]int)
	for i, d := range experiments.MatrixDesigns() {
		designPos[d.String()] = i
	}
	wlPos := make(map[string]int)
	for i, name := range ck.Request.Workloads {
		wlPos[name] = i
	}
	cells := make([]CellResult, 0, len(ck.Cells))
	for _, c := range ck.Cells { // sorted below; order-insensitive append
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if wlPos[cells[i].Workload] != wlPos[cells[j].Workload] {
			return wlPos[cells[i].Workload] < wlPos[cells[j].Workload]
		}
		return designPos[cells[i].Design] < designPos[cells[j].Design]
	})
	doc := ResultDoc{ID: id, CodeVersion: version, Request: ck.Request, Cells: cells}
	b, err := json.Marshal(&doc)
	if err != nil {
		return nil, fmt.Errorf("serve: result doc: %w", err)
	}
	return b, nil
}

// Event is one progress notification on a job's stream: a state change
// or a completed cell.
type Event struct {
	Type  string `json:"type"` // "state" | "cell"
	State State  `json:"state,omitempty"`
	Cell  string `json:"cell,omitempty"`  // "workload|design", type "cell"
	Done  int    `json:"done,omitempty"`  // cells finished so far
	Total int    `json:"total,omitempty"` // cells in the job
	Error string `json:"error,omitempty"`
}

// Status is a job's externally visible state snapshot.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`

	// Diagnostics carries the watchdog's structured dump when the job
	// failed on a trip, so a wedged configuration is diagnosable from
	// the API without grepping server logs.
	Diagnostics string `json:"diagnostics,omitempty"`
}

// Job is one admitted simulation request. Everything above mu is
// immutable after newJob returns; everything below it is guarded. Only
// the job's run touches its Checkpoint.
type Job struct {
	id    string
	ck    *Checkpoint // from admission or recovery to the end of the run
	total int         // cells in the job; fixed by the canonical request

	mu          sync.Mutex
	state       State
	done        int
	err         string
	diagnostics string
	subs        map[chan Event]struct{}
}

func newJob(id string, ck *Checkpoint) *Job {
	return &Job{
		id:    id,
		ck:    ck,
		state: StateQueued,
		total: ck.Request.Cells(),
		done:  len(ck.Cells),
		subs:  make(map[chan Event]struct{}),
	}
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.id, State: j.state, Done: j.done, Total: j.total,
		Error: j.err, Diagnostics: j.diagnostics,
	}
}

// Subscribe attaches a progress listener. The returned channel is
// buffered; a subscriber that stops draining loses events rather than
// blocking the simulation (slow clients are a fault the server must
// absorb, see publish). Cancel with the returned func.
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 64)
	j.mu.Lock()
	// Late subscribers immediately learn the current state. Sent under
	// the lock (the fresh buffer cannot block) so a concurrent terminal
	// publish cannot close ch between registration and this send. A job
	// already in a terminal state closes the stream right away instead
	// of registering a subscriber no publish will ever reach.
	ch <- Event{Type: "state", State: j.state, Done: j.done, Total: j.total, Error: j.err}
	if j.state == StateDone || j.state == StateFailed || j.state == StateInterrupted {
		close(ch)
	} else {
		j.subs[ch] = struct{}{}
	}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// publishLocked fans an event out to subscribers; j.mu is held. Sends
// never block: a full subscriber buffer (slow SSE client) drops the
// event for that subscriber only. Terminal states close the channels.
func (j *Job) publishLocked(ev Event) {
	terminal := ev.Type == "state" &&
		(ev.State == StateDone || ev.State == StateFailed || ev.State == StateInterrupted)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow client: drop, never stall the publisher
		}
		if terminal {
			close(ch)
		}
	}
	if terminal {
		j.subs = make(map[chan Event]struct{})
	}
}

func (j *Job) setState(st State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = st
	j.publishLocked(Event{Type: "state", State: st, Done: j.done, Total: j.total, Error: j.err})
}

func (j *Job) cellDone(key string, done int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done = done
	j.publishLocked(Event{Type: "cell", Cell: key, Done: done, Total: j.total})
}

func (j *Job) fail(err string, diagnostics string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateFailed
	j.err = err
	j.diagnostics = diagnostics
	j.publishLocked(Event{Type: "state", State: StateFailed, Done: j.done, Total: j.total, Error: err})
}
