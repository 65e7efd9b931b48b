package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tdram/internal/experiments"
	"tdram/internal/lru"
	"tdram/internal/obs/service"
	"tdram/internal/sim"
	"tdram/internal/system"
)

// Config configures a Server. The zero value of every field selects a
// default.
type Config struct {
	// Dir roots the persistent store (required).
	Dir string

	// QueueDepth bounds the admission queue (default 8). A full queue
	// rejects with ErrQueueFull — 429 at the HTTP tier — so load spikes
	// cost clients a retry, never the server its memory. Admitted jobs
	// are checkpointed before they are acknowledged, so "accepted" can
	// never degrade to "silently dropped".
	QueueDepth int

	// Workers sets the job worker-pool size (default max(2,
	// runtime.GOMAXPROCS(0))). Each worker runs one job at a time; the
	// pool's aggregate simulation parallelism is governed by the shared
	// CPU-token budget, not by Workers, so extra workers cost queue
	// concurrency, never host oversubscription.
	Workers int

	// SimTokens sizes the shared CPU-token budget every job's matrix
	// parallelism draws from (default runtime.GOMAXPROCS(0)). A job fans
	// out to one goroutine per token, so a lone job can use the whole
	// pool, and jobs sharing the pool take freed tokens in the order they
	// asked, so many jobs progress concurrently.
	SimTokens int

	// JobDeadline bounds one job's wall-clock run (default 10 minutes).
	// The deadline cancels the matrix sweep between cells; the job fails
	// with an explicit deadline error instead of pinning a worker.
	JobDeadline time.Duration

	// Version overrides the code-version namespace (tests). Empty
	// selects CodeVersion(), the running executable's hash.
	Version string
}

// memCacheBytes bounds the in-memory result tier above the disk store,
// in result payload bytes. The tier exists because a disk hit still
// pays a file read, a checksum pass and response framing per request,
// while the critical path of a hot hit should be one map lookup and one
// socket write (see memEntry).
const memCacheBytes = 64 << 20

// imageCacheBytes bounds the warmup images a Server keeps across jobs,
// measured from the images' own arrays (system.WarmupImage.Bytes). A
// default request's image (8 MiB cache, 8 cores) holds about 1.1 MiB,
// almost all of it the 8-byte-per-line tag array, so the bound keeps
// about 56 such images, the six of each of nine default jobs; a 1 GiB
// cache's 128 MiB tag array is never kept.
const imageCacheBytes = 64 << 20

// runMatrix is the sweep entry point; tests replace it to hold the
// worker on a job deterministically (the same seam idiom as the
// runner's own runCell/buildImage).
var runMatrix = experiments.RunMatrixOpts

// Sentinel admission errors; the HTTP tier maps them to 429 and 503.
var (
	ErrQueueFull = errors.New("serve: admission queue is full")
	ErrClosed    = errors.New("serve: server is shutting down")
)

// Server owns the job queue, the worker pool, the two-tier result
// store (memory LRU over the crash-safe disk store), the shared
// CPU-token budget and the warmup-image cache every job's sweep shares.
// See the package comment for the robustness contract.
type Server struct {
	cfg     Config
	store   *Store
	tier    *lru.Cache[string, *memEntry] // results by id, above store
	version string
	workers int

	budget *experiments.CPUBudget
	images *experiments.ImageCache

	metrics *service.Metrics
	drain   drainWindow
	busy    atomic.Int64 // workers currently running a job

	// Cached hot-path metric counters (Counter() takes the registry
	// lock; the handlers should not).
	cMemHits, cDiskHits, cMisses  *service.Counter
	cAdmitted, cRejected, cCells  *service.Counter
	cJobsDone, cJobsFailed, c304s *service.Counter

	ctx    context.Context // cancelled by Close; parents every job context
	cancel context.CancelFunc

	// Self-synchronized, not mu-guarded: queue is created in NewServer
	// before any worker starts and never reassigned (channel ops carry
	// their own synchronization), and WaitGroup is internally atomic.
	queue chan *Job
	wg    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool
}

// NewServer opens the store, recovers every checkpointed job from a
// previous process into the queue, and starts the worker. Recovery is
// what makes SIGKILL survivable: each recovered job resumes from its
// completed cells, not from tick 0, and a job whose result already
// landed (killed between the result write and the checkpoint delete)
// completes instantly.
func NewServer(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.JobDeadline <= 0 {
		cfg.JobDeadline = 10 * time.Minute
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
		if cfg.Workers < 2 {
			cfg.Workers = 2
		}
	}
	version := cfg.Version
	if version == "" {
		version = CodeVersion()
	}
	store, err := OpenStore(cfg.Dir, version)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		tier:    lru.New[string, *memEntry](memCacheBytes),
		version: version,
		workers: cfg.Workers,
		budget:  experiments.NewCPUBudget(cfg.SimTokens),
		images:  experiments.NewImageCache(imageCacheBytes),
		metrics: service.NewMetrics(),
		jobs:    make(map[string]*Job),
	}
	s.initMetrics()
	s.ctx, s.cancel = context.WithCancel(context.Background())

	recovered := s.recover()
	// Size the queue so every recovered job enqueues without blocking,
	// on top of the configured admission depth for new work.
	s.queue = make(chan *Job, cfg.QueueDepth+len(recovered))
	for _, j := range recovered {
		s.jobs[j.id] = j
		s.queue <- j
	}
	s.wg.Add(s.workers)
	for i := 0; i < s.workers; i++ {
		go s.worker()
	}
	return s, nil
}

// initMetrics registers the serving-tier counters and gauges: per-tier
// hit/miss tallies, admission outcomes, queue and token occupancy, and
// the memory tier's residency.
func (s *Server) initMetrics() {
	m := s.metrics
	s.cMemHits = m.Counter("serve.hits_mem")
	s.cDiskHits = m.Counter("serve.hits_disk")
	s.cMisses = m.Counter("serve.misses")
	s.cAdmitted = m.Counter("serve.jobs_admitted")
	s.cRejected = m.Counter("serve.jobs_rejected_429")
	s.cCells = m.Counter("serve.cells_done")
	s.cJobsDone = m.Counter("serve.jobs_done")
	s.cJobsFailed = m.Counter("serve.jobs_failed")
	s.c304s = m.Counter("serve.revalidated_304")
	m.Gauge("serve.queue_len", func() float64 { return float64(s.QueueLen()) })
	m.Gauge("serve.queue_depth", func() float64 { return float64(s.QueueDepth()) })
	m.Gauge("serve.workers", func() float64 { return float64(s.workers) })
	m.Gauge("serve.workers_busy", func() float64 { return float64(s.busy.Load()) })
	m.Gauge("serve.tokens_total", func() float64 { return float64(s.budget.Total()) })
	m.Gauge("serve.tokens_inflight", func() float64 { return float64(s.budget.InUse()) })
	m.Gauge("serve.memcache_bytes", func() float64 { return float64(s.tier.Bytes()) })
	m.Gauge("serve.memcache_entries", func() float64 { return float64(s.tier.Len()) })
	m.Gauge("serve.imagecache_bytes", func() float64 { return float64(s.images.Bytes()) })
	m.Gauge("serve.imagecache_entries", func() float64 { return float64(s.images.Len()) })
}

// recover scans the store for checkpoints left by a previous process
// and rebuilds their jobs. A corrupt or foreign checkpoint is skipped —
// its job's identity is unrecoverable, so the client re-submits (and,
// per the determinism contract, gets the same result it would have).
func (s *Server) recover() []*Job {
	var jobs []*Job
	for _, id := range s.store.Checkpoints() {
		if _, done := s.store.GetResult(id); done {
			// Killed after the result landed but before the checkpoint
			// delete; finish the bookkeeping now.
			s.store.DeleteCheckpoint(id)
			continue
		}
		ck, err := s.store.OpenCheckpoint(id)
		if err != nil {
			continue // corrupt, foreign or tampered: treated exactly like no checkpoint
		}
		jobs = append(jobs, newJob(id, ck))
	}
	return jobs
}

// Version reports the code-version namespace the server stores under.
func (s *Server) Version() string { return s.version }

// Store exposes the result store (the HTTP tier serves hits from it).
func (s *Server) Store() *Store { return s.store }

// QueueDepth reports the configured admission bound.
func (s *Server) QueueDepth() int { return s.cfg.QueueDepth }

// QueueLen reports how many jobs are waiting (diagnostics).
func (s *Server) QueueLen() int { return len(s.queue) }

// Workers reports the worker-pool size.
func (s *Server) Workers() int { return s.workers }

// Budget exposes the shared CPU-token budget (gauges, tests).
func (s *Server) Budget() *experiments.CPUBudget { return s.budget }

// Metrics exposes the serving-tier metric registry (the /metricz
// endpoint renders its snapshot).
func (s *Server) Metrics() *service.Metrics { return s.metrics }

// queuedCells totals the unfinished cells of every queued or running
// job — the backlog a 429'd client is waiting behind. Done jobs are
// forgotten (see finish), so it walks only jobs still in play.
func (s *Server) queuedCells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, j := range s.jobs {
		st := j.Status()
		if st.State == StateQueued || st.State == StateRunning {
			total += st.Total - st.Done
		}
	}
	return total
}

// retryAfter derives the 429 Retry-After (seconds) from the live drain
// rate: recent cells/sec against the committed backlog, with a sane
// floor and ceiling (see retryAfterSeconds).
func (s *Server) retryAfter() int {
	return retryAfterSeconds(s.queuedCells(), s.drain.cellsPerSec(wallNow()))
}

// Job looks up an admitted job by content address. A done job is
// forgotten: its stored result answers for it.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Admit enqueues a canonicalized request under its content address.
// Submitting a configuration that is already queued or running joins
// the existing job instead of duplicating the work — content addressing
// dedupes in flight, not just at rest. Returns ErrQueueFull when the
// bounded queue is at capacity and ErrClosed during shutdown.
func (s *Server) Admit(id string, req Request) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if j, ok := s.jobs[id]; ok {
		switch j.Status().State {
		case StateQueued, StateRunning:
			// Content addressing dedupes in flight: join, don't duplicate.
			return j, nil
		}
		// A failed job (done jobs are forgotten): a resubmission retries it.
	}
	// Durable-before-acknowledged: the journal's header record makes a
	// queued-but-unstarted job survive a crash. Recovery claimed every
	// journal a previous process left that verifies, so a new job always
	// starts a fresh one.
	ck, err := s.store.CreateCheckpoint(id, req)
	if err != nil {
		return nil, err
	}
	j := newJob(id, ck)
	select {
	case s.queue <- j:
	default:
		// Rejected is the opposite of accepted: leave no trace a future
		// recovery would mistake for an admitted job.
		s.store.DeleteCheckpoint(id)
		return nil, ErrQueueFull
	}
	s.jobs[id] = j
	return j, nil
}

// worker is one member of the pool: it drains the queue one job at a
// time (each job parallelizes internally across matrix cells, gated by
// the shared token budget). It exits when Close cancels the server
// context; queued jobs stay checkpointed for the next process.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.busy.Add(1)
			s.runJobSupervised(j)
			s.busy.Add(-1)
		}
	}
}

// runJobSupervised is the supervisor boundary: a panicking job —
// whether from a simulation bug the runner's own recovery missed or
// from the serve layer itself — becomes a failed-job state with the
// stack attached, and the worker survives to run the next job.
func (s *Server) runJobSupervised(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			s.store.DeleteCheckpoint(j.id)
			s.cJobsFailed.Inc()
			j.fail(fmt.Sprintf("worker panic: %v", r), string(debug.Stack()))
		}
	}()
	s.runJob(j)
}

func (s *Server) runJob(j *Job) {
	ck := j.ck
	defer ck.Close()
	// A previous incarnation may have finished this configuration
	// already; serving it beats re-simulating it.
	if _, ok := s.store.GetResult(j.id); ok {
		s.store.DeleteCheckpoint(j.id)
		s.finish(j)
		return
	}
	j.setState(StateRunning)

	ctx, cancel := context.WithTimeout(s.ctx, s.cfg.JobDeadline)
	defer cancel()

	opts := experiments.MatrixOptions{
		Jobs:    s.budget.Total(),
		Budget:  s.budget,
		Images:  s.images,
		Context: ctx,
		Filter: func(k experiments.Key) bool {
			_, done := ck.Cells[cellKey(k.Workload, k.Design.String())]
			return !done
		},
		OnCell: func(k experiments.Key, res *system.Result, err error) {
			if err != nil {
				return // cancellation or a cell failure; classified after the sweep
			}
			c := cellResultFrom(k, res)
			// Per-cell durability: a SIGKILL from here on loses at most
			// the cell currently in flight. A failed append degrades the
			// checkpoint, not the job — ck still holds the cell in
			// memory, so an uninterrupted run completes normally.
			_ = ck.Add(c)
			s.drain.note(wallNow())
			s.cCells.Inc()
			j.cellDone(cellKey(c.Workload, c.Design), len(ck.Cells))
		},
	}
	_, runErr := runMatrix(ck.Request.Scale(), opts)

	if len(ck.Cells) == j.total {
		doc, err := buildDoc(j.id, s.version, ck)
		if err != nil {
			s.store.DeleteCheckpoint(j.id)
			s.cJobsFailed.Inc()
			j.fail(err.Error(), "")
			return
		}
		if err := s.store.PutResult(j.id, doc); err != nil {
			s.cJobsFailed.Inc()
			j.fail(err.Error(), "")
			return
		}
		// Write-through: the first GET after a simulation is already a
		// memory hit, and the bytes it serves are the bytes just stored.
		s.tier.Put(j.id, newMemEntry(j.id, s.version, doc), int64(len(doc)))
		s.store.DeleteCheckpoint(j.id)
		s.finish(j)
		return
	}

	if runErr == nil {
		// Impossible by the runner contract (every non-filtered cell
		// either lands in OnCell or errors), but fail loudly over
		// pretending completeness.
		s.store.DeleteCheckpoint(j.id)
		s.cJobsFailed.Inc()
		j.fail("incomplete matrix without error", "")
		return
	}
	if s.ctx.Err() != nil {
		// Shutdown cancelled the sweep between cells. The checkpoint
		// holds every finished cell; the next process resumes it.
		j.setState(StateInterrupted)
		return
	}
	var trip *sim.TripError
	diagnostics := ""
	if errors.As(runErr, &trip) {
		diagnostics = trip.Diagnostics
	}
	s.store.DeleteCheckpoint(j.id)
	s.cJobsFailed.Inc()
	if errors.Is(runErr, context.DeadlineExceeded) {
		j.fail(fmt.Sprintf("deadline exceeded after %d/%d cells (limit %v)",
			len(ck.Cells), j.total, s.cfg.JobDeadline), "")
		return
	}
	j.fail(runErr.Error(), diagnostics)
}

// finish marks j done and forgets it: from here on the stored result
// answers for the job (status, result and events all fall back to it),
// so Server.jobs holds only jobs still in play and does not grow with
// every configuration ever served.
func (s *Server) finish(j *Job) {
	s.mu.Lock()
	if s.jobs[j.id] == j {
		delete(s.jobs, j.id)
	}
	s.mu.Unlock()
	s.cJobsDone.Inc()
	j.setState(StateDone)
}

// Close stops admission, cancels the running job at its next cell
// boundary (its finished cells are already checkpointed), and waits for
// the worker to exit — bounded by ctx. Queued and interrupted jobs stay
// on disk for the next process; nothing in flight is lost.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown did not drain in time: %w", ctx.Err())
	}
}
