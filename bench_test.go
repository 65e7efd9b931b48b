// The full-system kernel benchmark. The paper's tables and figures are
// reproduced by `cmd/tdbench` (checked byte for byte against
// full_results.txt), and the end-to-end benchmark is `bash bench/run.sh`.
package tdram_test

import (
	"testing"

	"tdram"
)

const (
	benchCapacity = 8 << 20
	benchRequests = 1500
)

// benchRun executes one cell at micro scale.
func benchRun(b *testing.B, d tdram.Design, wl tdram.Workload) *tdram.Result {
	b.Helper()
	cfg := tdram.NewSystemConfig(d, wl, benchCapacity)
	cfg.RequestsPerCore = benchRequests
	cfg.WarmupPerCore = 300
	res, err := tdram.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkKernelSystem is the event-kernel end-to-end cell: one
// TDRAM-design run of a single workload, so the measurement is dominated
// by schedule/fire churn on the simulation core rather than by figure
// bookkeeping. Its ns/op and allocs/op are the full-system kernel
// numbers CI uploads per push; the end-to-end benchmark is
// `bash bench/run.sh` (see bench/README.md).
func BenchmarkKernelSystem(b *testing.B) {
	wl := tdram.MustWorkload("ft.C")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRun(b, tdram.TDRAM, wl)
	}
}
