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
                   [-sim-tokens N] [-deadline DUR] [-drain DUR]
`)
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8344", "listen address")
	dir := fs.String("dir", "tdserve-store", "result store directory")
	queue := fs.Int("queue", 8, "admission queue depth")
	workers := fs.Int("workers", 0, "job worker-pool size (0 = max(2, GOMAXPROCS))")
	simTokens := fs.Int("sim-tokens", 0, "shared CPU-token budget across jobs (0 = GOMAXPROCS)")
	deadline := fs.Duration("deadline", 10*time.Minute, "per-job deadline")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown budget")
	fs.Parse(args)

	s, err := serve.NewServer(serve.Config{
		Dir:         *dir,
		QueueDepth:  *queue,
		Workers:     *workers,
		SimTokens:   *simTokens,
		JobDeadline: *deadline,
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
