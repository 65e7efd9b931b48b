// Package serve implements tdserve: a fault-tolerant HTTP/JSON job
// service over the experiment matrix with content-addressed result
// caching and checkpoint-restart.
//
// A request is a canonicalized simulation configuration (workloads x
// designs x scale) hashed to a content address. The repo's bit-identical
// determinism invariant — identical configs produce identical results,
// enforced by tdlint and the golden tests — is what makes memoization
// sound: a configuration is only ever simulated once per code version,
// and every later submission is served from the persistent store in
// microseconds, byte-identical to the first response.
//
// The robustness layer runs through every tier: a bounded admission
// queue with explicit 429 + Retry-After backpressure, per-job deadlines
// via context cancellation in the matrix runner, a supervisor that
// converts worker panics into failed-job states, per-cell
// checkpoint-restart from an append-only journal so a killed server
// resumes in-flight jobs instead of restarting them from tick 0,
// crash-safe store writes (temp file + fsync + atomic rename; corrupt
// entries and torn journal records are detected by checksum and
// treated as misses, never 500s), and graceful shutdown that drains or
// checkpoints in-flight jobs within a deadline. Warmup images outlive
// their job in a bounded cache, so a miss that shares an earlier job's
// image key skips the functional warmup.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"tdram/internal/experiments"
	"tdram/internal/sim"
	"tdram/internal/workload"
)

// Request is one simulation configuration as submitted by a client. The
// zero value of every field selects a default, so `{}` is a valid job
// (the representative workload set at quick scale). Fields deliberately
// cover only simulation content: transport choices (progress streaming,
// metrics) live outside the Request so they cannot fracture the content
// address of identical configurations.
type Request struct {
	// Workloads names the workload axis (empty selects the band-balanced
	// representative subset). Order and duplicates do not matter:
	// canonicalization sorts and dedupes, so permutations of the same
	// set share one content address.
	Workloads []string `json:"workloads"`

	// CacheMB is the DRAM-cache capacity in MiB (default 8).
	CacheMB int `json:"cache_mb"`

	// RequestsPerCore / WarmupPerCore size the measured and timed-warmup
	// phases (defaults 4000 / 500).
	RequestsPerCore int `json:"requests_per_core"`
	WarmupPerCore   int `json:"warmup_per_core"`

	// FaultRate, when positive, enables deterministic fault injection at
	// that per-access probability, seeded by FaultSeed.
	FaultRate float64 `json:"fault_rate"`
	FaultSeed uint64  `json:"fault_seed"`
}

// Request bounds: a public what-if API must reject configurations that
// would pin a worker for hours or exhaust memory, with a 4xx instead of
// an operator page.
const (
	maxRequestsPerCore = 200000
	maxWarmupPerCore   = 50000
	maxCacheMB         = 1024
	maxWorkloads       = 64
)

// Canonicalize validates r and rewrites it into its canonical form:
// defaults applied, workloads sorted and deduped, bounds enforced. Two
// requests describing the same simulation canonicalize to equal values
// and therefore hash to the same content address.
func (r *Request) Canonicalize() error {
	if len(r.Workloads) == 0 {
		for _, wl := range workload.Representative() {
			r.Workloads = append(r.Workloads, wl.Name)
		}
	}
	if len(r.Workloads) > maxWorkloads {
		return fmt.Errorf("serve: %d workloads exceeds the limit of %d", len(r.Workloads), maxWorkloads)
	}
	sort.Strings(r.Workloads)
	deduped := r.Workloads[:0]
	for i, name := range r.Workloads {
		if i > 0 && name == r.Workloads[i-1] {
			continue
		}
		if _, err := workload.ByName(name); err != nil {
			return fmt.Errorf("serve: %v", err)
		}
		deduped = append(deduped, name)
	}
	r.Workloads = deduped

	if r.CacheMB == 0 {
		r.CacheMB = 8
	}
	if r.CacheMB < 1 || r.CacheMB > maxCacheMB {
		return fmt.Errorf("serve: cache_mb %d out of range [1, %d]", r.CacheMB, maxCacheMB)
	}
	if r.RequestsPerCore == 0 {
		r.RequestsPerCore = 4000
	}
	if r.RequestsPerCore < 1 || r.RequestsPerCore > maxRequestsPerCore {
		return fmt.Errorf("serve: requests_per_core %d out of range [1, %d]", r.RequestsPerCore, maxRequestsPerCore)
	}
	if r.WarmupPerCore == 0 {
		r.WarmupPerCore = 500
	}
	if r.WarmupPerCore < 0 || r.WarmupPerCore > maxWarmupPerCore {
		return fmt.Errorf("serve: warmup_per_core %d out of range [0, %d]", r.WarmupPerCore, maxWarmupPerCore)
	}
	if r.FaultRate < 0 || r.FaultRate > 1 {
		return fmt.Errorf("serve: fault_rate %g is not a probability", r.FaultRate)
	}
	return nil
}

// ID returns the request's content address: the hex form of the first
// 16 bytes of SHA-256 over the canonical JSON encoding. The encoding is
// deterministic — struct fields marshal in declaration order and the
// workload list is canonically sorted — so equal configurations address
// equal store entries. Call Canonicalize first.
func (r *Request) ID() string {
	// Struct-field marshaling never ranges over a map, so the encoding
	// is byte-stable; this is exactly the property the determinism
	// analyzer guards in this package.
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("serve: canonical request does not marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// Scale builds the experiment-matrix scale the request describes. Every
// job arms the no-progress watchdog: a wedged cell must fail the job
// with a structured diagnosis, never hang a worker forever.
func (r *Request) Scale() experiments.Scale {
	specs := make([]workload.Spec, 0, len(r.Workloads))
	for _, name := range r.Workloads {
		wl, err := workload.ByName(name)
		if err != nil {
			panic(fmt.Sprintf("serve: canonicalized workload vanished: %v", err))
		}
		specs = append(specs, wl)
	}
	return experiments.Scale{
		Name:            "serve",
		CacheBytes:      uint64(r.CacheMB) << 20,
		RequestsPerCore: r.RequestsPerCore,
		WarmupPerCore:   r.WarmupPerCore,
		Workloads:       specs,
		FaultRate:       r.FaultRate,
		FaultSeed:       r.FaultSeed,
		Watchdog:        10 * sim.Millisecond,
	}
}

// Cells reports how many (design, workload) cells the request spans.
func (r *Request) Cells() int {
	return len(r.Workloads) * len(experiments.MatrixDesigns())
}

var (
	codeVersionOnce sync.Once
	codeVersion     string
)

// CodeVersion identifies the simulator build serving the store: the hex
// prefix of SHA-256 over the running executable. Results are cached per
// (config-hash, code-version), so a rebuilt binary — which may
// legitimately change bit-exact results — starts a fresh namespace
// instead of serving stale entries, while a restart of the same binary
// (checkpoint-restart) keeps its namespace and resumes its jobs.
func CodeVersion() string {
	codeVersionOnce.Do(func() {
		codeVersion = "dev"
		exe, err := os.Executable()
		if err != nil {
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return
		}
		codeVersion = hex.EncodeToString(h.Sum(nil))[:12]
	})
	return codeVersion
}
