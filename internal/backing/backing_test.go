package backing

import (
	"testing"

	"tdram/internal/dram"
	"tdram/internal/sim"
)

func newMem(t *testing.T) (*sim.Simulator, *Memory) {
	t.Helper()
	s := sim.New()
	m, err := New(s, dram.DDR5Params())
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// runFunc runs the func() stored as an event's argument: tests pass
// their closures through the typed-argument completion form.
func runFunc(a any, _ sim.Tick) { a.(func())() }

// read offers a read of line whose completion runs done (nil: none).
func read(m *Memory, line uint64, done func()) bool {
	if done == nil {
		return m.ReadArg(line, nil, nil)
	}
	return m.ReadArg(line, runFunc, done)
}

func TestSingleReadLatency(t *testing.T) {
	s, m := newMem(t)
	var doneAt sim.Tick
	if !read(m, 0, func() { doneAt = s.Now() }) {
		t.Fatal("read rejected")
	}
	s.RunUntil(func() bool { return doneAt != 0 })
	// Unloaded: tRCD(16) + tCL(16) + tBURST(2) = 34ns.
	if doneAt != sim.NS(34) {
		t.Errorf("unloaded read latency = %v, want 34ns", doneAt)
	}
	if m.Stats().Reads != 1 {
		t.Errorf("reads = %d", m.Stats().Reads)
	}
}

func TestReadsCompleteInOrderPerChannel(t *testing.T) {
	s, m := newMem(t)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		// Same channel (stride 2 lines keeps channel 0), distinct banks.
		if !read(m, uint64(i*2), func() { order = append(order, i) }) {
			t.Fatal("rejected")
		}
	}
	s.Run(0)
	if len(order) != 10 {
		t.Fatalf("completed %d of 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-channel FCFS order violated: %v", order)
		}
	}
}

func TestChannelsParallel(t *testing.T) {
	s, m := newMem(t)
	var times []sim.Tick
	for i := 0; i < 2; i++ {
		if !read(m, uint64(i), func() { times = append(times, s.Now()) }) {
			t.Fatal("rejected")
		}
	}
	s.Run(0)
	if len(times) != 2 || times[0] != times[1] {
		t.Errorf("two channels did not serve in parallel: %v", times)
	}
}

func TestQueueFull(t *testing.T) {
	_, m := newMem(t)
	accepted := 0
	for i := 0; i < QueueDepth*3; i++ {
		if read(m, uint64(i*2), nil) { // all to channel 0
			accepted++
		}
	}
	// The first request issues immediately at t=0 and leaves the queue,
	// so QueueDepth+1 are accepted before backpressure.
	if accepted != QueueDepth+1 {
		t.Errorf("accepted %d, want %d", accepted, QueueDepth+1)
	}
	if m.Stats().QueueFullRejects == 0 {
		t.Error("no rejects recorded")
	}
	if m.ReadQueueFree(0) {
		t.Error("ReadQueueFree on full queue")
	}
}

func TestWriteDraining(t *testing.T) {
	s, m := newMem(t)
	// Fill writes beyond hiWater on channel 0; they must eventually issue.
	for i := 0; i < hiWater+4; i++ {
		if !m.Write(uint64(i * 2)) {
			t.Fatalf("write %d rejected", i)
		}
	}
	s.Run(0)
	if got := m.Stats().Writes; got != uint64(hiWater+4) {
		t.Errorf("writes issued = %d, want %d", got, hiWater+4)
	}
	if m.Stats().WriteDrainSwitches == 0 {
		t.Error("drain mode never engaged")
	}
	r, w := m.Pending()
	if r != 0 || w != 0 {
		t.Errorf("pending after drain: %d reads %d writes", r, w)
	}
}

func TestReadsPreferredOverWrites(t *testing.T) {
	s, m := newMem(t)
	// A few writes (below hiWater) then a read: the read must not wait
	// for all writes.
	for i := 0; i < 8; i++ {
		m.Write(uint64(i * 2))
	}
	var readDone sim.Tick
	read(m, 100, func() { readDone = s.Now() }) // channel 0
	s.Run(0)
	if readDone == 0 {
		t.Fatal("read never completed")
	}
	// If the read had waited for all 8 writes it would finish well after
	// 8 write-bank-times; it should finish much sooner.
	if readDone > sim.NS(200) {
		t.Errorf("read completed at %v; writes were preferred", readDone)
	}
}

func TestQueueingStats(t *testing.T) {
	s, m := newMem(t)
	for i := 0; i < 20; i++ {
		read(m, uint64(i*2), nil) // same channel: queueing builds up
	}
	s.Run(0)
	st := m.Stats()
	if st.ReadQueueing.N() != 20 {
		t.Fatalf("queueing samples = %d", st.ReadQueueing.N())
	}
	if st.ReadQueueing.Value() <= 0 {
		t.Error("no queueing delay measured despite same-channel burst")
	}
	if st.ReadLatency.Value() <= st.ReadQueueing.Value() {
		t.Error("latency not larger than queueing")
	}
	if st.BytesRead != 20*64 {
		t.Errorf("bytes read = %d", st.BytesRead)
	}
}

func TestThroughputBound(t *testing.T) {
	// A saturating same-channel read stream must approach but not exceed
	// the 32 GiB/s channel peak (64 B / 2 ns).
	s, m := newMem(t)
	completed := 0
	var last sim.Tick
	issued := 0
	var pump func()
	pump = func() {
		for issued < 512 && read(m, uint64(issued*2), func() { completed++; last = s.Now() }) {
			issued++
		}
		if issued < 512 {
			s.ScheduleArg(sim.NS(50), runFunc, pump)
		}
	}
	pump()
	s.Run(0)
	if completed != 512 {
		t.Fatalf("completed %d", completed)
	}
	gbps := float64(512*64) / last.Nanoseconds() // bytes per ns = GB/s
	if gbps > 32.5 {
		t.Errorf("channel exceeded peak: %.1f GB/s", gbps)
	}
	if gbps < 20 {
		t.Errorf("saturated channel only reached %.1f GB/s", gbps)
	}
}

func BenchmarkBackingReadStream(b *testing.B) {
	s := sim.New()
	m, err := New(s, dram.DDR5Params())
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	for i := 0; i < b.N; i++ {
		for !read(m, uint64(i), func() { done++ }) {
			s.Step()
		}
	}
	s.Run(0)
}
