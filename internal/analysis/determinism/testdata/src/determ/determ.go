// Package determ exercises every determinism rule: wall-clock reads,
// global math/rand draws, and order-sensitive map-iteration sinks.
package determ

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()      // want `time\.Now reads the wall clock`
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func globalRand() int {
	r := rand.New(rand.NewSource(42)) // locally seeded generator: the fix, not the problem
	_ = r.Intn(6)
	return rand.Intn(6) // want `math/rand global Intn draws from the shared process-wide source`
}

// sortedKeys is the blessed idiom: the append target is sorted after
// the loop, so iteration order never escapes.
func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func unsortedKeys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k) // want `appending to ks while ranging over a map without sorting afterwards`
	}
	return ks
}

// sortedTooEarly sorts before the loop, so the appended keys keep map
// order: the sort must come after the range to count.
func sortedTooEarly(m map[string]int, ks []string) []string {
	sort.Strings(ks)
	for k := range m {
		ks = append(ks, k) // want `appending to ks while ranging over a map without sorting afterwards`
	}
	return ks
}

func dumpCSV(w *csv.Writer, m map[string]string) {
	for k, v := range m {
		w.Write([]string{k, v}) // want `map iteration feeds a csv\.Writer`
	}
}

func dumpJSON(enc *json.Encoder, m map[string]int) {
	for k := range m {
		enc.Encode(k) // want `map iteration feeds a json\.Encoder`
	}
}

func buildString(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `map iteration feeds a strings\.Builder`
	}
	return b.String()
}

func printAll(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `map iteration feeds fmt\.Fprintf`
	}
}

func meanLatency(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `floating-point accumulation in map-iteration order`
	}
	return sum / float64(len(m))
}

// Integer accumulation is exact and order-free: not flagged.
func histTotal(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}

// Indexed stores land each element in a key-determined slot: the
// result is independent of iteration order. Not flagged.
func indexedFill(m map[string]int, procs []string) {
	for name, pid := range m {
		procs[pid] = name
	}
}

// --- snapshot/fork capture shapes ---

// A warmup-image capture that serializes a scoring map into a slice
// inherits the map's randomized iteration order: runs forked from the
// image would diverge from a straight-line run.
func captureScores(m map[uint64]int) []uint64 {
	var lines []uint64
	for line := range m {
		lines = append(lines, line) // want `appending to lines while ranging over a map without sorting afterwards`
	}
	return lines
}

// Map-to-map cloning stores each entry in a key-determined slot, so
// iteration order never escapes: the snapshot deep-copy idiom is order-
// free and must not be flagged.
func cloneScores(m map[uint64]int) map[uint64]int {
	d := make(map[uint64]int, len(m))
	for k, v := range m {
		d[k] = v
	}
	return d
}

func allowedAppend(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k) //tdlint:allow determinism — consumer treats the result as an unordered set
	}
	return ks
}

// --- service-layer shapes: content addressing and result documents ---

// A content address derived by feeding map entries to the hash input in
// iteration order changes between runs: the same request would hash to
// a different store key each time, turning every lookup into a miss.
func contentAddress(params map[string]string) []byte {
	var b bytes.Buffer
	for k, v := range params {
		b.WriteString(k) // want `map iteration feeds a bytes\.Buffer`
		b.WriteString(v) // want `map iteration feeds a bytes\.Buffer`
	}
	return b.Bytes()
}

// The canonical form: collect and sort the keys, then feed the hash
// input in that fixed order. Iteration order never reaches the bytes.
func canonicalAddress(params map[string]string) []byte {
	ks := make([]string, 0, len(params))
	for k := range params {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b bytes.Buffer
	for _, k := range ks {
		b.WriteString(k)
		b.WriteString(params[k])
	}
	return b.Bytes()
}

// A checkpoint's per-cell map flattened into a result document follows
// the sorted-keys idiom — append inside the range, sort after — so the
// stored document is byte-identical across runs. Must not be flagged.
func flattenCells(cells map[string]float64) []string {
	rows := make([]string, 0, len(cells))
	for key := range cells {
		rows = append(rows, key)
	}
	sort.Strings(rows)
	return rows
}
