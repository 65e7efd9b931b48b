// Command tdserve runs the fault-tolerant simulation service: an
// HTTP/JSON API where a job is a canonicalized simulation configuration
// served from a content-addressed result store, simulated at most once
// per code version, and resumed from its per-cell checkpoint after a
// crash or restart.
//
// Usage:
//
//	tdserve serve -addr :8344 -dir ./tdserve-store
//
// serve runs until SIGINT/SIGTERM, then shuts down gracefully: stop
// accepting, cancel running jobs at their next cell boundary (finished
// cells are already checkpointed), flush, exit. The benchmark module
// (bench/, workload serve-mixed) drives the service with a hit/miss mix.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tdram/internal/serve"
	"tdram/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tdserve: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tdserve: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  tdserve serve    [-addr :8344] [-dir DIR] [-queue N] [-workers N]
                   [-sim-jobs N] [-sim-tokens N] [-mem-cache BYTES]
                   [-deadline DUR] [-metrics DUR]
`)
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8344", "listen address")
	dir := fs.String("dir", "tdserve-store", "result store directory")
	queue := fs.Int("queue", 8, "admission queue depth")
	workers := fs.Int("workers", 0, "job worker-pool size (0 = max(2, GOMAXPROCS))")
	simJobs := fs.Int("sim-jobs", 0, "matrix fan-out ceiling per job (0 = GOMAXPROCS)")
	simTokens := fs.Int("sim-tokens", 0, "shared CPU-token budget across jobs (0 = GOMAXPROCS)")
	memCache := fs.Int64("mem-cache", 64<<20, "in-memory result cache bound in bytes (0 = disabled)")
	deadline := fs.Duration("deadline", 10*time.Minute, "per-job deadline")
	metrics := fs.Duration("metrics", 0, "sampler period of simulated time streamed to /jobs/{id}/events (0 = off)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown budget")
	fs.Parse(args)

	// The CLI's "0 disables the cache" maps to the Config convention
	// where zero selects the default and negative disables.
	memBytes := *memCache
	if memBytes == 0 {
		memBytes = -1
	}
	s, err := serve.NewServer(serve.Config{
		Dir:             *dir,
		QueueDepth:      *queue,
		Workers:         *workers,
		SimJobs:         *simJobs,
		SimTokens:       *simTokens,
		MemCacheBytes:   memBytes,
		JobDeadline:     *deadline,
		MetricsInterval: sim.NS(float64(metrics.Nanoseconds())),
	})
	if err != nil {
		return err
	}
	fmt.Printf("tdserve: code version %s, store %s, %d workers / %d CPU tokens, listening on %s\n",
		s.Version(), *dir, s.Workers(), s.Budget().Total(), *addr)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("tdserve: shutting down (checkpointing in-flight work)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop the listener first so no request lands after the server
	// stops admitting, then drain the job workers within the budget.
	httpErr := httpSrv.Shutdown(shutdownCtx)
	if err := s.Close(shutdownCtx); err != nil {
		return err
	}
	return httpErr
}
