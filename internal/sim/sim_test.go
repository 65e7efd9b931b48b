package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTickNS(t *testing.T) {
	cases := []struct {
		ns   float64
		want Tick
	}{
		{0, 0}, {1, 1000}, {2.5, 2500}, {7.5, 7500}, {0.5, 500}, {0.75, 750},
	}
	for _, c := range cases {
		if got := NS(c.ns); got != c.want {
			t.Errorf("NS(%g) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestTickString(t *testing.T) {
	cases := []struct {
		t    Tick
		want string
	}{
		{0, "0.000ns"},
		{1, "0.001ns"},        // single picosecond
		{999, "0.999ns"},      // just below the ns boundary
		{1000, "1.000ns"},     // exactly 1 ns
		{1001, "1.001ns"},     // just past it
		{NS(2.5), "2.500ns"},  // fractional Table III parameter
		{999999, "999.999ns"}, // just below 1 us
		{Microsecond, "1000.000ns"},
		{Millisecond + 1, "1000000.001ns"},
		{-1, "-0.001ns"},
		{-999, "-0.999ns"},
		{-1000, "-1.000ns"},
		{NS(2.5) * -1, "-2.500ns"},
		{math.MaxInt64, "9223372036854775.807ns"},
		{math.MinInt64 + 1, "-9223372036854775.807ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Tick(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestNSNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NS(-1) did not panic")
		}
	}()
	NS(-1)
}

// runFunc runs the func() stored as an event's argument: tests schedule
// their closures through the one typed-argument API.
func runFunc(a any, _ Tick) { a.(func())() }

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.ScheduleArg(30, runFunc, func() { got = append(got, 3) })
	s.ScheduleArg(10, runFunc, func() { got = append(got, 1) })
	s.ScheduleArg(20, runFunc, func() { got = append(got, 2) })
	s.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v", got)
	}
	if s.Now() != 30 {
		t.Errorf("Now = %v, want 30", s.Now())
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.ScheduleArg(5, runFunc, func() { got = append(got, i) })
	}
	s.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-tick events reordered: %v", got)
		}
	}
}

func TestScheduleFromEvent(t *testing.T) {
	s := New()
	var fired []Tick
	s.ScheduleArg(10, runFunc, func() {
		fired = append(fired, s.Now())
		s.ScheduleArg(5, runFunc, func() { fired = append(fired, s.Now()) })
	})
	s.Run(0)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired = %v", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.ScheduleArg(10, runFunc, func() {})
	s.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleArgAt in the past did not panic")
		}
	}()
	s.ScheduleArgAt(5, runFunc, func() {})
}

func TestRunLimit(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.ScheduleArg(Tick(i)*100, runFunc, func() { count++ })
	}
	s.Run(500)
	if count != 5 {
		t.Errorf("events fired by 500 = %d, want 5", count)
	}
	if s.Now() != 500 {
		t.Errorf("Now = %v, want 500", s.Now())
	}
	s.Run(0)
	if count != 10 {
		t.Errorf("total fired = %d, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	n := 0
	for i := 1; i <= 5; i++ {
		s.ScheduleArg(Tick(i), runFunc, func() { n++ })
	}
	if !s.RunUntil(func() bool { return n >= 3 }) {
		t.Fatal("RunUntil returned false before condition met")
	}
	if n != 3 {
		t.Errorf("n = %d, want 3", n)
	}
	if s.RunUntil(func() bool { return n >= 100 }) {
		t.Error("RunUntil reported success after queue drained")
	}
}

func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	s := New()
	ticks := 0
	var daemon func()
	daemon = func() {
		ticks++
		s.ScheduleDaemonArg(10, runFunc, daemon) // perpetual, like refresh
	}
	s.ScheduleDaemonArg(10, runFunc, daemon)
	fired := false
	s.ScheduleArg(35, runFunc, func() { fired = true })
	s.Run(0)
	if !fired {
		t.Fatal("regular event did not fire")
	}
	// Daemons at 10, 20, 30 run before the regular event at 35; the
	// daemon at 40 must not.
	if ticks != 3 {
		t.Errorf("daemon ticks = %d, want 3", ticks)
	}
}

func TestDaemonDoesNotKeepRunUntilAlive(t *testing.T) {
	s := New()
	var daemon func()
	daemon = func() { s.ScheduleDaemonArg(10, runFunc, daemon) }
	s.ScheduleDaemonArg(10, runFunc, daemon)
	if s.RunUntil(func() bool { return false }) {
		t.Fatal("RunUntil returned true")
	}
}

func TestDaemonHonoredWithLimit(t *testing.T) {
	s := New()
	ticks := 0
	var daemon func()
	daemon = func() { ticks++; s.ScheduleDaemonArg(10, runFunc, daemon) }
	s.ScheduleDaemonArg(10, runFunc, daemon)
	s.Run(45)
	if ticks != 4 {
		t.Errorf("daemon ticks under explicit limit = %d, want 4", ticks)
	}
}

func TestStepEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestFiredPending(t *testing.T) {
	s := New()
	s.ScheduleArg(1, runFunc, func() {})
	s.ScheduleArg(2, runFunc, func() {})
	if s.Pending() != 2 {
		t.Errorf("Pending = %d", s.Pending())
	}
	s.Step()
	if s.Fired() != 1 || s.Pending() != 1 {
		t.Errorf("Fired=%d Pending=%d", s.Fired(), s.Pending())
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fired []Tick
		for _, d := range delays {
			s.ScheduleArg(Tick(d), runFunc, func() { fired = append(fired, s.Now()) })
		}
		s.Run(0)
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEventQueue(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.ScheduleArg(Tick(i%64), runFunc, func() {})
		if s.Pending() > 1024 {
			for s.Pending() > 0 {
				s.Step()
			}
		}
	}
	s.Run(0)
}

func TestParseTick(t *testing.T) {
	good := []struct {
		in   string
		want Tick
	}{
		{"500ps", 500},
		{"2.5ns", 2500},
		{"1us", Microsecond},
		{"3ms", 3 * Millisecond},
		{"0ns", 0},
		{"1e3ns", Microsecond},
		{".5ns", 500},
		{"+2ns", 2000},
	}
	for _, c := range good {
		got, err := ParseTick(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseTick(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	// Junk numeric prefixes used to be silently prefix-matched by
	// fmt.Sscanf ("1.2.3ns" parsed as 1.2ns); they must now error.
	bad := []string{
		"", "ns", "5", "1.2.3ns", "5x7us", "1.2ns3", "0x5zns", "--2ns",
		"-3ns", "1 ns", "NaNns", "Infus", "-Infms", "1e999ns", "1..ns",
	}
	for _, in := range bad {
		if got, err := ParseTick(in); err == nil {
			t.Errorf("ParseTick(%q) = %v, want error", in, got)
		}
	}
}
