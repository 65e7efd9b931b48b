// Command tdtrace records, inspects and replays DRAM-cache demand
// traces. Replaying one design's recorded stream against another is
// trace-driven simulation — the methodology the paper's §IV-A argues
// against — so `tdtrace replay` also prints the execution-driven result
// for the same design+workload, making the feedback error visible.
//
// Usage:
//
//	tdtrace record -workload ft.C -design cascade-lake -out ft.trace
//	tdtrace info   -in ft.trace
//	tdtrace replay -in ft.trace -design tdram -workload ft.C
package main

import (
	"flag"
	"fmt"
	"os"

	"tdram/internal/backing"
	"tdram/internal/dram"
	"tdram/internal/dramcache"
	"tdram/internal/sim"
	"tdram/internal/system"
	"tdram/internal/trace"
	"tdram/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		fatal(fmt.Errorf("usage: tdtrace record|info|replay [flags]"))
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fatal(err)
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wlName := fs.String("workload", "ft.C", "workload to run")
	designName := fs.String("design", "cascade-lake", "design whose execution generates the trace")
	capacity := fs.Uint64("capacity", 16<<20, "cache capacity in bytes")
	requests := fs.Int("requests", 5000, "measured accesses per core")
	out := fs.String("out", "demands.trace", "output trace file")
	fs.Parse(args)

	design, err := dramcache.ParseDesign(*designName)
	if err != nil {
		return err
	}
	wl, err := workload.ByName(*wlName)
	if err != nil {
		return err
	}
	cfg := system.DefaultConfig(design, wl, *capacity)
	cfg.RequestsPerCore = *requests
	sys, err := system.New(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	rec := trace.NewRecorder(sys.Controller(), f)
	res, err := sys.Run()
	if err != nil {
		return err
	}
	if err := rec.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d demands from %v on %s (runtime %v) to %s\n",
		rec.Events(), design, wl.Name, res.Runtime, *out)
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "demands.trace", "trace file")
	fs.Parse(args)
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := trace.Summarize(f)
	if err != nil {
		return err
	}
	span := s.Last - s.First
	fmt.Printf("events    %d (%d reads, %d writes)\n", s.Events, s.Reads, s.Writes)
	fmt.Printf("cores     %d\n", s.Cores)
	fmt.Printf("lines     %d distinct (%d MiB footprint touched)\n", s.Lines, s.Lines*64>>20)
	fmt.Printf("span      %v", span)
	if span > 0 {
		bw := float64(s.Events*64) / span.Nanoseconds()
		fmt.Printf("  (%.1f GB/s demand bandwidth)", bw)
	}
	fmt.Println()
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "demands.trace", "trace file")
	designName := fs.String("design", "tdram", "design to replay against")
	capacity := fs.Uint64("capacity", 16<<20, "cache capacity in bytes")
	warmFrac := fs.Float64("warmup-frac", 0.3, "leading fraction of the trace used as functional cache warmup")
	wlName := fs.String("workload", "", "if set, also run this workload execution-driven on the same design for comparison")
	fs.Parse(args)

	design, err := dramcache.ParseDesign(*designName)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	events, err := trace.ReadAll(f)
	f.Close()
	if err != nil {
		return err
	}

	s := sim.New()
	mm, err := backing.New(s, dram.DDR5Params())
	if err != nil {
		return err
	}
	ctl, err := dramcache.New(s, dramcache.DefaultConfig(design, *capacity), mm)
	if err != nil {
		return err
	}
	player := trace.NewPlayer(s, ctl, events)
	if err := player.Prewarm(*warmFrac); err != nil {
		return err
	}
	runtime, err := player.Run()
	if err != nil {
		return err
	}
	st := ctl.Stats()
	fmt.Printf("trace-driven replay on %v: runtime %v, miss ratio %.3f, tag check %.1fns\n",
		design, runtime, st.Outcomes.MissRatio(), st.TagCheck.Value())

	if *wlName != "" {
		wl, err := workload.ByName(*wlName)
		if err != nil {
			return err
		}
		cfg := system.DefaultConfig(design, wl, *capacity)
		cfg.RequestsPerCore = len(events) / cfg.Cores
		res, err := system.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("execution-driven %v on %s: runtime %v, miss ratio %.3f, tag check %.1fns\n",
			design, wl.Name, res.Runtime, res.Cache.Outcomes.MissRatio(), res.Cache.TagCheck.Value())
		fmt.Println("(the difference is the feedback trace-driven simulation cannot see — §IV-A)")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdtrace:", err)
	os.Exit(1)
}
