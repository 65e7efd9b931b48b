// Package trace records and replays DRAM-cache demand streams. The
// paper's methodology section (§IV-A) argues that trace-driven
// simulation misses feedback effects — an application's demand timing
// depends on the memory system it runs against — and this package lets
// the repository demonstrate exactly that: record the demand stream of
// one design's execution-driven run, replay it open-loop against
// another design, and compare against the execution-driven result.
//
// The binary format is a compact delta encoding:
//
//	header:  "TDTRACE1"
//	event:   uvarint(tick delta in ps) | byte(kind<<7 | core) | uvarint(line)
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tdram/internal/mem"
	"tdram/internal/sim"
)

// Magic identifies the binary trace format.
const Magic = "TDTRACE1"

// lineLimit bounds an event's line: a line is a 64-bit byte address
// over 64, so it is below 2^58. A larger one would wrap when the player
// turns it back into a byte address, and alias tags in the cache content
// Prewarm builds from the raw line, so both sides of the codec reject it.
const lineLimit uint64 = 1 << (64 - mem.LineShift)

// checkLine rejects a line beyond the line address space.
func checkLine(line uint64) error {
	if line >= lineLimit {
		return fmt.Errorf("trace: line %#x beyond the %d-bit line address space", line, 64-mem.LineShift)
	}
	return nil
}

// Event is one 64 B demand as it was accepted by the controller.
type Event struct {
	Tick sim.Tick // acceptance time
	Core uint8
	Kind mem.Kind
	Line uint64
}

// Writer streams events to w in the binary format.
type Writer struct {
	w        *bufio.Writer
	lastTick sim.Tick
	events   uint64
	buf      [binary.MaxVarintLen64]byte
	started  bool
}

// NewWriter wraps w; the header is written on the first event (or on
// Flush, whichever comes first).
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

func (tw *Writer) start() error {
	if tw.started {
		return nil
	}
	tw.started = true
	_, err := tw.w.WriteString(Magic)
	return err
}

// Append encodes one event. Events must be time-ordered.
func (tw *Writer) Append(e Event) error {
	if err := tw.start(); err != nil {
		return err
	}
	if e.Tick < tw.lastTick {
		return fmt.Errorf("trace: event at %v before previous %v", e.Tick, tw.lastTick)
	}
	if e.Core > 127 {
		return fmt.Errorf("trace: core %d exceeds the format's 7-bit field", e.Core)
	}
	if err := checkLine(e.Line); err != nil {
		return err
	}
	n := binary.PutUvarint(tw.buf[:], uint64(e.Tick-tw.lastTick))
	if _, err := tw.w.Write(tw.buf[:n]); err != nil {
		return err
	}
	tw.lastTick = e.Tick
	flags := byte(e.Core)
	if e.Kind == mem.Write {
		flags |= 0x80
	}
	if err := tw.w.WriteByte(flags); err != nil {
		return err
	}
	n = binary.PutUvarint(tw.buf[:], e.Line)
	if _, err := tw.w.Write(tw.buf[:n]); err != nil {
		return err
	}
	tw.events++
	return nil
}

// Events reports how many events were appended.
func (tw *Writer) Events() uint64 { return tw.events }

// Flush writes buffered data (and the header for an empty trace).
func (tw *Writer) Flush() error {
	if err := tw.start(); err != nil {
		return err
	}
	return tw.w.Flush()
}

// Reader streams events back from the binary format.
type Reader struct {
	r        *bufio.Reader
	lastTick sim.Tick
	checked  bool
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// ErrBadMagic reports a stream that is not a TDRAM trace.
var ErrBadMagic = errors.New("trace: bad magic (not a TDTRACE1 stream)")

func (tr *Reader) header() error {
	if tr.checked {
		return nil
	}
	tr.checked = true
	got := make([]byte, len(Magic))
	if _, err := io.ReadFull(tr.r, got); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if string(got) != Magic {
		return ErrBadMagic
	}
	return nil
}

// Next decodes one event; io.EOF signals a clean end of trace.
func (tr *Reader) Next() (Event, error) {
	if err := tr.header(); err != nil {
		return Event{}, err
	}
	delta, err := binary.ReadUvarint(tr.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("trace: tick: %w", err)
	}
	flags, err := tr.r.ReadByte()
	if err != nil {
		return Event{}, fmt.Errorf("trace: flags: %w", err)
	}
	line, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return Event{}, fmt.Errorf("trace: line: %w", err)
	}
	if err := checkLine(line); err != nil {
		return Event{}, err
	}
	tr.lastTick += sim.Tick(delta)
	e := Event{Tick: tr.lastTick, Core: flags & 0x7F, Kind: mem.Read, Line: line}
	if flags&0x80 != 0 {
		e.Kind = mem.Write
	}
	return e, nil
}

// ReadAll decodes a whole trace into memory.
func ReadAll(r io.Reader) ([]Event, error) {
	tr := NewReader(r)
	var out []Event
	for {
		e, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// Summary aggregates a trace's shape.
type Summary struct {
	Events        uint64
	Reads, Writes uint64
	Cores         int
	Lines         uint64 // distinct lines
	First, Last   sim.Tick
}

// Summarize scans a trace stream.
func Summarize(r io.Reader) (Summary, error) {
	tr := NewReader(r)
	var s Summary
	seenCores := map[uint8]bool{}
	seenLines := map[uint64]bool{}
	for {
		e, err := tr.Next()
		if errors.Is(err, io.EOF) {
			s.Cores = len(seenCores)
			s.Lines = uint64(len(seenLines))
			return s, nil
		}
		if err != nil {
			return s, err
		}
		if s.Events == 0 {
			s.First = e.Tick
		}
		s.Last = e.Tick
		s.Events++
		if e.Kind == mem.Write {
			s.Writes++
		} else {
			s.Reads++
		}
		seenCores[e.Core] = true
		seenLines[e.Line] = true
	}
}
