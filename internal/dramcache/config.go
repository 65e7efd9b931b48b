package dramcache

import (
	"fmt"

	"tdram/internal/fault"
	"tdram/internal/sim"
)

// Design selects which of the paper's evaluated DRAM-cache designs the
// controller models.
type Design int

const (
	// CascadeLake is the evaluation baseline: Intel's commercial
	// block-granule direct-mapped insert-on-miss cache storing tags in
	// the ECC bits of the data, 64 B bursts. Every demand — read or
	// write — starts with a DRAM read for its tag check.
	CascadeLake Design = iota
	// Alloy streams tag-and-data (TAD) units: the same flow with 80 B
	// bursts.
	Alloy
	// BEAR is Alloy plus bandwidth-bloat mitigations: write-hits bypass
	// the tag-check read via DRAM-cache-presence bits, and an adaptive
	// bandwidth-aware bypass skips fills for cache-averse traffic.
	BEAR
	// NDC (Native DRAM Cache) stores tags in separate in-DRAM banks with
	// CAM-like compare tied to the column operation: no early hit/miss,
	// no conditional column op, tag returned over DQ, and a victim
	// buffer drained by explicit RES commands.
	NDC
	// TDRAM is the paper's contribution: lockstep tag/data access
	// (ActRd/ActWr), in-DRAM compare gating the column operation, HM
	// bus, flush buffer, and early tag probing.
	TDRAM
	// Ideal knows hit/miss and metadata in zero time — the upper bound a
	// perfect tags-in-SRAM design could reach.
	Ideal
	// NoCache bypasses the DRAM cache entirely (main memory only); the
	// reference system of Figs. 2 and 12.
	NoCache
)

// tagPath says who reads a design's tags, and when (§II, §IV-A).
type tagPath uint8

const (
	// tagsNone: no DRAM cache, no tags (NoCache).
	tagsNone tagPath = iota
	// tagsInData: tags ride in the data burst (ECC bits or TAD units);
	// every demand, write or read, starts with a DRAM read the controller
	// compares (Cascade Lake, Alloy, BEAR).
	tagsInData
	// tagsInDevice: on-die tag mats compared in DRAM with the access,
	// which is a lockstep tag/data command (NDC, TDRAM). The ActWr
	// carries its own tag check, and a detected tag-mat error retries it.
	tagsInDevice
	// tagsOracle: hit/miss and metadata known at intake in zero time
	// (Ideal).
	tagsOracle
)

// missCleanOp is what a read-miss-clean's access does with its column
// operation once the tag check says miss.
type missCleanOp uint8

const (
	// missCleanRead reads the line out and the controller discards it.
	missCleanRead missCleanOp = iota
	// missCleanColumnOnly performs the column operation (energy) but
	// moves nothing on DQ (NDC, §VI).
	missCleanColumnOnly
	// missCleanSkip gates the column decode off in DRAM; the reserved DQ
	// slot drains one flush-buffer entry instead (TDRAM, §III-D2).
	missCleanSkip
)

// drainPolicy is when the flush/victim buffer is emptied with explicit
// buffer-read commands.
type drainPolicy uint8

const (
	// drainNone: the design has no flush/victim buffer.
	drainNone drainPolicy = iota
	// drainRES: explicit RES commands once the buffer passes 3/4, or
	// whenever the channel is otherwise idle (NDC).
	drainRES
	// drainWhenFull: explicit drains only when the buffer is full;
	// refresh windows and miss-clean slots cover the rest (TDRAM).
	drainWhenFull
)

// designSpec is one design's row of capabilities. The controller copies
// its row once, in New, and every design-dependent branch tests a field
// of it, so a new design is one row plus whatever mechanism it adds.
type designSpec struct {
	name string
	tags tagPath
	// hmBus: tag results return on the HM bus at HMAt, with parity
	// retransmits, an HM-bus journey span, refresh-window flush drains,
	// and explicit drains counted as FlushStalls (TDRAM).
	hmBus     bool
	missClean missCleanOp
	drain     drainPolicy
	// dcp: DRAM-cache-presence bits let write-hits skip the tag read, and
	// fills go through the bandwidth-aware adaptive bypass (BEAR).
	dcp bool
	// probe and predictor: whether early tag probing (§III-E) and the
	// MAP-I predictor (§V-D) may be enabled for the design.
	probe, predictor bool
	// DQ burst time and bytes moved per access. Alloy and BEAR move 80 B
	// TAD units per 64 B demand; NDC appends the tag (2 beats) to reads.
	readBurst, writeBurst sim.Tick
	readBytes, writeBytes uint64
}

// designSpecs is the capability table, indexed by Design.
var designSpecs = [...]designSpec{
	CascadeLake: {name: "cascade-lake", tags: tagsInData, predictor: true,
		readBurst: sim.NS(2), writeBurst: sim.NS(2), readBytes: 64, writeBytes: 64},
	Alloy: {name: "alloy", tags: tagsInData, predictor: true,
		readBurst: sim.NS(2.5), writeBurst: sim.NS(2.5), readBytes: 80, writeBytes: 80},
	BEAR: {name: "bear", tags: tagsInData, dcp: true,
		readBurst: sim.NS(2.5), writeBurst: sim.NS(2.5), readBytes: 80, writeBytes: 80},
	NDC: {name: "ndc", tags: tagsInDevice, missClean: missCleanColumnOnly, drain: drainRES,
		readBurst: sim.NS(2.25), writeBurst: sim.NS(2), readBytes: 72, writeBytes: 64},
	TDRAM: {name: "tdram", tags: tagsInDevice, hmBus: true, missClean: missCleanSkip, drain: drainWhenFull, probe: true,
		readBurst: sim.NS(2), writeBurst: sim.NS(2), readBytes: 64, writeBytes: 64},
	Ideal: {name: "ideal", tags: tagsOracle,
		readBurst: sim.NS(2), writeBurst: sim.NS(2), readBytes: 64, writeBytes: 64},
	NoCache: {name: "no-cache", tags: tagsNone},
}

// spec returns d's capability row; an unknown design gets the zero row,
// whose empty name Validate rejects.
func (d Design) spec() designSpec {
	if d < 0 || int(d) >= len(designSpecs) {
		return designSpec{}
	}
	return designSpecs[d]
}

func (d Design) String() string {
	if sp := d.spec(); sp.name != "" {
		return sp.name
	}
	return fmt.Sprintf("design(%d)", int(d))
}

// Cached reports whether the design has a DRAM cache (every design but
// NoCache).
func (d Design) Cached() bool { return d.spec().tags != tagsNone }

// Designs lists the cache designs in the paper's comparison order.
func Designs() []Design {
	ds := make([]Design, 0, len(designSpecs))
	for d := range designSpecs {
		if Design(d).Cached() {
			ds = append(ds, Design(d))
		}
	}
	return ds
}

// ParseDesign resolves a design name.
func ParseDesign(s string) (Design, error) {
	for d, sp := range designSpecs {
		if sp.name == s {
			return Design(d), nil
		}
	}
	return 0, fmt.Errorf("dramcache: unknown design %q", s)
}

// Queue and buffer capacities from Table III.
const (
	ReadQueueDepth  = 64
	WriteQueueDepth = 64
	ConflictDepth   = 32
	// drain hysteresis for the write queue
	writeHiWater = WriteQueueDepth * 3 / 4
	writeLoWater = WriteQueueDepth / 4
)

// Config parameterizes a Controller.
type Config struct {
	Design        Design
	CapacityBytes uint64
	Ways          int // 1 = direct-mapped (the paper's default)

	// FlushEntries sizes TDRAM's flush buffer / NDC's victim buffer.
	FlushEntries int

	// ProbeEnabled turns TDRAM's early tag probing on (ablation hook).
	ProbeEnabled bool
	// ProbeOldest selects the oldest queued read instead of the paper's
	// youngest-first policy (§III-E2 ablation).
	ProbeOldest bool

	// UsePredictor adds a MAP-I hit/miss predictor to Cascade Lake or
	// Alloy (§V-D): predicted-miss reads start the main-memory fetch in
	// parallel with the tag check.
	UsePredictor bool

	// UsePrefetcher adds a per-core stride prefetcher at the DRAM-cache
	// controller (the §V-D prefetcher study). Once a core's stride is
	// confident, PrefetchDegree lines ahead are fetched into the cache;
	// zero means 1.
	UsePrefetcher  bool
	PrefetchDegree int

	// OpenPage runs the cache device with an open-page row-buffer policy
	// instead of the paper's close-page auto-precharge. Only meaningful
	// for the tags-with-data designs: TDRAM's and NDC's lockstep
	// commands are defined with auto-precharge.
	OpenPage bool

	// Fault configures deterministic fault injection (internal/fault).
	// The zero value disables it; disabled runs are bit-identical to
	// builds without the subsystem. Ignored for NoCache.
	Fault fault.Config
}

// DefaultConfig returns the paper's configuration of the given design
// for a cache of the given capacity.
func DefaultConfig(d Design, capacityBytes uint64) Config {
	return Config{
		Design:        d,
		CapacityBytes: capacityBytes,
		Ways:          1,
		FlushEntries:  16,
		ProbeEnabled:  d.spec().probe,
	}
}

// Validate rejects inconsistent configurations.
func (c *Config) Validate() error {
	sp := c.Design.spec()
	if sp.name == "" {
		return fmt.Errorf("dramcache: unknown design %v", c.Design)
	}
	if sp.tags == tagsNone {
		return nil
	}
	if c.CapacityBytes == 0 {
		return fmt.Errorf("dramcache: zero capacity")
	}
	if c.Ways <= 0 {
		return fmt.Errorf("dramcache: ways = %d", c.Ways)
	}
	if sp.drain != drainNone && c.FlushEntries <= 0 {
		return fmt.Errorf("dramcache: %v needs a flush/victim buffer", c.Design)
	}
	if c.UsePredictor && !sp.predictor {
		return fmt.Errorf("dramcache: predictor only applies to tags-with-data designs")
	}
	if c.ProbeEnabled && !sp.probe {
		return fmt.Errorf("dramcache: early tag probing requires TDRAM")
	}
	if c.OpenPage && sp.tags == tagsInDevice {
		return fmt.Errorf("dramcache: open-page policy is incompatible with %v's auto-precharging commands", c.Design)
	}
	if c.Fault.Rate < 0 || c.Fault.Rate > 1 || c.Fault.UncorrectableFrac < 0 || c.Fault.UncorrectableFrac > 1 {
		return fmt.Errorf("dramcache: fault rates must be probabilities (rate=%g, uncorrectable=%g)",
			c.Fault.Rate, c.Fault.UncorrectableFrac)
	}
	return nil
}
