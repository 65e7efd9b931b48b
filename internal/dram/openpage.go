package dram

import (
	"fmt"

	"tdram/internal/sim"
)

// Open-page row-buffer policy. The paper's devices run close-page with
// auto-precharge (ActRd/ActWr close their row, §III-D); this optional
// policy keeps rows open so accesses with row locality skip tRCD, pay a
// precharge on conflicts, and let FR-FCFS exploit row hits — the classic
// trade-off the tags-with-data literature (e.g. Retagger) plays with.
// It applies to plain reads and writes only: the combined tag-lockstep
// commands are defined with auto-precharge and always run close-page.
//
// Approximation: a row conflict's PRE+ACT pair is issued as one compound
// command occupying a single CA slot; its data lands at
// tRP + tRCD + tCL(/tCWL) after the command.

// rowCategory classifies an open-page access.
type rowCategory uint8

const (
	rowHit rowCategory = iota
	rowClosed
	rowConflict
)

// openBank is the per-bank row-buffer state (allocated only when the
// policy is enabled).
type openBank struct {
	row      int      // open row, -1 closed
	nextCol  sim.Tick // earliest next column op to the open row
	preReady sim.Tick // earliest allowed precharge
	actReady sim.Tick // earliest allowed activate once precharged
}

// openState returns the open-page bookkeeping, allocating lazily.
func (c *Channel) openState() []openBank {
	if c.open == nil {
		c.open = make([]openBank, c.p.Banks)
		for i := range c.open {
			c.open[i].row = -1
		}
	}
	return c.open
}

// category classifies op against the bank's row buffer.
func (c *Channel) category(op Op) rowCategory {
	b := &c.openState()[op.Bank]
	switch {
	case b.row == op.Row:
		return rowHit
	case b.row == -1:
		return rowClosed
	default:
		return rowConflict
	}
}

// openColOffset is the command-to-DQ offset of a column-only access.
func (c *Channel) openColOffset(op Op) sim.Tick {
	if op.Kind == OpWrite {
		return c.p.TCWL
	}
	return c.p.TCL
}

// earliestOpen computes the earliest feasible command time for a plain
// read/write under the open-page policy.
func (c *Channel) earliestOpen(op Op, after sim.Tick) sim.Tick {
	if op.Kind != OpRead && op.Kind != OpWrite {
		panic(fmt.Sprintf("dram: open-page earliest for %v", op.Kind))
	}
	banks := c.openState()
	b := &banks[op.Bank]
	cat := c.category(op)
	burst := c.burst(op)
	dir := DirRead
	if op.Kind == OpWrite {
		dir = DirWrite
	}
	t := after
	for iter := 0; ; iter++ {
		if iter > 256 {
			panic("dram: open-page Earliest did not converge")
		}
		start := t
		var off sim.Tick
		switch cat {
		case rowHit:
			if t < b.nextCol {
				t = b.nextCol
			}
			off = c.openColOffset(op)
		case rowClosed:
			if t < b.actReady {
				t = b.actReady
			}
			if v := c.lastAct + c.p.TRRD; t < v {
				t = v
			}
			if v := c.fawBound(); t < v {
				t = v
			}
			off = c.p.TRCD + c.openColOffset(op)
		case rowConflict:
			// The compound PRE+ACT may not issue before the precharge is
			// permitted.
			if t < b.preReady {
				t = b.preReady
			}
			if v := c.lastAct + c.p.TRRD; t < v {
				t = v
			}
			if v := c.fawBound(); t < v {
				t = v
			}
			off = c.p.TRP + c.p.TRCD + c.openColOffset(op)
		}
		if at := c.ca.FirstFree(t, c.p.TCMD, DirWrite); at > t {
			t = at
		}
		if s := c.dq.FirstFree(t+off, burst, dir); s > t+off {
			t = s - off
		}
		if t == start {
			return t
		}
	}
}

// commitOpen reserves resources for an open-page read/write at time at.
func (c *Channel) commitOpen(op Op, at sim.Tick) Issue {
	banks := c.openState()
	b := &banks[op.Bank]
	cat := c.category(op)
	burst := c.burst(op)
	dir := DirRead
	if op.Kind == OpWrite {
		dir = DirWrite
	}

	iss := Issue{At: at}
	c.ca.Reserve(at, c.p.TCMD, DirWrite)

	var colAt sim.Tick // time of the column command's effect
	switch cat {
	case rowHit:
		colAt = at
	case rowClosed:
		colAt = at + c.p.TRCD
		b.row = op.Row
		c.recordAct(at)
		b.preReady = at + c.p.TRAS
	case rowConflict:
		actAt := at + c.p.TRP
		colAt = actAt + c.p.TRCD
		b.row = op.Row
		c.recordAct(actAt)
		b.preReady = actAt + c.p.TRAS
		c.stats.Precharges++
	}
	if cat == rowHit {
		c.stats.RowHits++
	}

	off := c.openColOffset(op)
	iss.DataStart = colAt + off
	iss.DataEnd = iss.DataStart + burst
	c.dq.Reserve(iss.DataStart, burst, dir)
	c.stats.DQBusyTicks += uint64(burst)

	// Column cadence and precharge constraints.
	b.nextCol = colAt + c.p.TBURST
	if op.Kind == OpRead {
		if v := colAt + c.p.TRTP; v > b.preReady {
			b.preReady = v
		}
	} else {
		if v := iss.DataEnd + c.p.TWR; v > b.preReady {
			b.preReady = v
		}
	}
	iss.BankFree = b.preReady + c.p.TRP
	return iss
}

// refreshOpen closes every row at refresh.
func (c *Channel) refreshOpen(end sim.Tick) {
	if c.open == nil {
		return
	}
	for i := range c.open {
		c.open[i].row = -1
		if c.open[i].actReady < end {
			c.open[i].actReady = end
		}
		if c.open[i].nextCol < end {
			c.open[i].nextCol = end
		}
		if c.open[i].preReady < end {
			c.open[i].preReady = end
		}
	}
}
