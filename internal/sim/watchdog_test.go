package sim

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

func TestWatchdogNilIsInert(t *testing.T) {
	var w *Watchdog
	w.Progress()
	w.TripDrained(3)
	if w.Tripped() {
		t.Error("nil watchdog tripped")
	}
	if got := w.Report(); got != "watchdog: not armed" {
		t.Errorf("nil Report() = %q", got)
	}
}

func TestWatchdogNegativeWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewWatchdog(New(), -1)
}

// TestWatchdogWindowTrip: time advances, events keep firing, but no
// request retires — the periodic check trips and Run returns early.
func TestWatchdogWindowTrip(t *testing.T) {
	s := New()
	w := NewWatchdog(s, 100*Nanosecond)
	// A self-rescheduling non-daemon event: the machine is "busy" (by the
	// kernel's nonDaemon signal) and simulated time advances 1 ns at a
	// time, but Progress is never called.
	var spin func()
	spin = func() { s.ScheduleArg(Nanosecond, runFunc, spin) }
	s.ScheduleArg(0, runFunc, spin)
	end := s.Run(Millisecond)
	if !w.Tripped() {
		t.Fatal("watchdog did not trip on a no-progress spin")
	}
	if end >= Millisecond {
		t.Errorf("run continued to %v despite the trip", end)
	}
	if r := w.Report(); !strings.Contains(r, "no request retired within") {
		t.Errorf("report lacks the window reason: %q", r)
	}
}

// TestWatchdogWindowHealthy: the same spin with Progress called every
// event never trips, and the armed watchdog's daemon check does not keep
// a drained simulation alive.
func TestWatchdogWindowHealthy(t *testing.T) {
	s := New()
	w := NewWatchdog(s, 100*Nanosecond)
	n := 0
	var spin func()
	spin = func() {
		w.Progress()
		if n++; n < 1000 {
			s.ScheduleArg(Nanosecond, runFunc, spin)
		}
	}
	s.ScheduleArg(0, runFunc, spin)
	s.Run(0)
	if w.Tripped() {
		t.Fatalf("watchdog tripped on a healthy run: %s", w.Report())
	}
	if n != 1000 {
		t.Errorf("run stopped after %d events", n)
	}
	// Only the watchdog's own daemon check can remain queued; Run(0) must
	// have stopped at the last real event, not idled on the daemon.
	if s.nonDaemon != 0 {
		t.Errorf("nonDaemon = %d after drain", s.nonDaemon)
	}
}

// TestWatchdogOutstanding: with an outstanding callback registered, an
// idle machine (outstanding 0) never trips even while daemon-like event
// chatter continues.
func TestWatchdogOutstanding(t *testing.T) {
	s := New()
	w := NewWatchdog(s, 10*Nanosecond)
	w.SetOutstanding(func() int { return 0 })
	n := 0
	var spin func()
	spin = func() {
		if n++; n < 200 {
			s.ScheduleArg(Nanosecond, runFunc, spin)
		}
	}
	s.ScheduleArg(0, runFunc, spin)
	s.Run(0)
	if w.Tripped() {
		t.Fatalf("watchdog tripped with zero outstanding: %s", w.Report())
	}
}

// TestWatchdogEventBudget: zero-delay events rescheduling each other
// never advance the clock, so the window check cannot fire; the event
// budget catches the same-tick livelock.
func TestWatchdogEventBudget(t *testing.T) {
	s := New()
	w := NewWatchdog(s, Millisecond)
	w.SetEventBudget(1000)
	var spin func()
	spin = func() { s.ScheduleArg(0, runFunc, spin) }
	s.ScheduleArg(0, runFunc, spin)
	s.Run(0)
	if !w.Tripped() {
		t.Fatal("event budget did not trip on a same-tick spin")
	}
	if s.Now() != 0 {
		t.Errorf("clock advanced to %v in a same-tick spin", s.Now())
	}
	if r := w.Report(); !strings.Contains(r, "events fired without a request retiring") {
		t.Errorf("report lacks the budget reason: %q", r)
	}
	if s.fired > 1100 {
		t.Errorf("%d events fired before the 1000-event budget tripped", s.fired)
	}
}

func TestWatchdogTripDrained(t *testing.T) {
	s := New()
	w := NewWatchdog(s, 0)
	w.TripDrained(7)
	if !w.Tripped() {
		t.Fatal("TripDrained did not trip")
	}
	if r := w.Report(); !strings.Contains(r, "drained with 7 request(s) outstanding") {
		t.Errorf("report lacks the drained reason: %q", r)
	}
}

// TestWatchdogReportDumps: registered dumps render in Report with their
// names, plus the kernel line.
func TestWatchdogReportDumps(t *testing.T) {
	s := New()
	w := NewWatchdog(s, 0)
	w.AddDump("cores", func() string { return "core0 stalled" })
	w.AddDump("queues", func() string { return "readq=5" })
	w.TripDrained(1)
	r := w.Report()
	for _, want := range []string{"kernel:", "cores: core0 stalled", "queues: readq=5"} {
		if !strings.Contains(r, want) {
			t.Errorf("report lacks %q:\n%s", want, r)
		}
	}
}

// TestWatchdogRunUntilAborts: RunUntil returns false (instead of
// spinning forever) once the watchdog trips.
func TestWatchdogRunUntilAborts(t *testing.T) {
	s := New()
	w := NewWatchdog(s, 50*Nanosecond)
	var spin func()
	spin = func() { s.ScheduleArg(Nanosecond, runFunc, spin) }
	s.ScheduleArg(0, runFunc, spin)
	if s.RunUntil(func() bool { return false }) {
		t.Fatal("RunUntil reported cond satisfied")
	}
	if !w.Tripped() {
		t.Fatal("RunUntil drained without the watchdog tripping")
	}
}

// TestWatchdogDeterminism: an armed watchdog is purely observational — a
// healthy run fires the same events at the same times with and without
// it.
func TestWatchdogDeterminism(t *testing.T) {
	run := func(arm bool) (Tick, uint64) {
		s := New()
		var w *Watchdog
		if arm {
			w = NewWatchdog(s, 100*Nanosecond)
		}
		n := 0
		var spin func()
		spin = func() {
			w.Progress()
			if n++; n < 5000 {
				s.ScheduleArg(3*Nanosecond, runFunc, spin)
			}
		}
		s.ScheduleArg(0, runFunc, spin)
		end := s.Run(0)
		// Subtract the daemon checks the armed run fires.
		return end, uint64(n)
	}
	armedEnd, armedN := run(true)
	plainEnd, plainN := run(false)
	if armedEnd != plainEnd || armedN != plainN {
		t.Errorf("armed run (%v, %d events) differs from plain run (%v, %d events)",
			armedEnd, armedN, plainEnd, plainN)
	}
}

// TestWatchdogErrStructured: a trip is recoverable as a *TripError whose
// Reason is the one-line diagnosis and whose Diagnostics carry the full
// Report() dump, and an untripped (or nil) watchdog's Err() is nil — the
// programmatic trip result a service job consumes.
func TestWatchdogErrStructured(t *testing.T) {
	var nilWd *Watchdog
	if err := nilWd.Err(); err != nil {
		t.Errorf("nil watchdog Err() = %v", err)
	}

	s := New()
	w := NewWatchdog(s, 100*Nanosecond)
	if err := w.Err(); err != nil {
		t.Errorf("untripped Err() = %v", err)
	}
	var spin func()
	spin = func() { s.ScheduleArg(Nanosecond, runFunc, spin) }
	s.ScheduleArg(0, runFunc, spin)
	s.Run(Millisecond)
	if !w.Tripped() {
		t.Fatal("spin did not trip the watchdog")
	}
	err := w.Err()
	var trip *TripError
	if !errors.As(err, &trip) {
		t.Fatalf("Err() = %T, want *TripError", err)
	}
	if !strings.Contains(trip.Reason, "no request retired within") {
		t.Errorf("Reason = %q", trip.Reason)
	}
	if strings.Contains(trip.Error(), "\n") {
		t.Errorf("Error() is not one line: %q", trip.Error())
	}
	if !strings.Contains(trip.Diagnostics, "kernel:") || !strings.Contains(trip.Diagnostics, trip.Reason) {
		t.Errorf("Diagnostics lack the kernel dump or reason:\n%s", trip.Diagnostics)
	}
}

// TestWatchdogTripHandlerNoStderr: with a trip handler installed the
// trip path is fully programmatic — nothing in the kernel writes to
// stderr; the handler and the structured Err() are the only outputs. A
// service that installs a handler therefore fails the job cleanly with
// no diagnostic spray from library code.
func TestWatchdogTripHandlerNoStderr(t *testing.T) {
	old := os.Stderr
	r, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = pw
	defer func() { os.Stderr = old }()

	s := New()
	w := NewWatchdog(s, 100*Nanosecond)
	handled := ""
	w.SetOnTrip(func(reason string) { handled = reason })
	var spin func()
	spin = func() { s.ScheduleArg(Nanosecond, runFunc, spin) }
	s.ScheduleArg(0, runFunc, spin)
	s.Run(Millisecond)

	pw.Close()
	os.Stderr = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Tripped() || handled == "" {
		t.Fatal("trip handler did not run")
	}
	if len(out) != 0 {
		t.Errorf("trip wrote %d bytes to stderr with a handler installed:\n%s", len(out), out)
	}
}
