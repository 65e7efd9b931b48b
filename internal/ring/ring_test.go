package ring

import "testing"

// TestFIFOAcrossWraparound pushes and pops against a slice model: a
// growing phase (two pushes per pop), a hovering phase (one push per
// pop, so the head wraps at a fixed capacity) and a drain.
func TestFIFOAcrossWraparound(t *testing.T) {
	var r Ring[int]
	var model []int
	next := 0
	for step := 0; step < 3000; step++ {
		var push bool
		switch {
		case step < 1000:
			push = step%3 != 0
		case step < 2000:
			push = step%2 == 0
		}
		if push {
			r.Push(next)
			model = append(model, next)
			next++
		} else if len(model) > 0 {
			if got := r.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		}
		if r.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(model))
		}
		for i, want := range model {
			if got := *r.At(i); got != want {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, want)
			}
		}
	}
	if r.Len() != 0 {
		t.Fatalf("drain left %d elements", r.Len())
	}
}

// TestFrontInPlace edits the front element through Front and reads the
// edit back through Pop.
func TestFrontInPlace(t *testing.T) {
	var r Ring[[2]int]
	r.Push([2]int{1, 0})
	r.Push([2]int{2, 0})
	r.Front()[1] = 9
	if got := r.Pop(); got != [2]int{1, 9} {
		t.Fatalf("Pop = %v, want [1 9]", got)
	}
}

// TestKeepsStorage checks the property the simulator relies on: a
// queue cycling below its high-water mark allocates nothing.
func TestKeepsStorage(t *testing.T) {
	var r Ring[*int]
	v := new(int)
	for i := 0; i < 8; i++ {
		r.Push(v)
	}
	for r.Len() > 0 {
		r.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			r.Push(v)
		}
		for r.Len() > 0 {
			r.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.0f times per run", allocs)
	}
}

// TestPopEmptyPanics guards the emptiness check.
func TestPopEmptyPanics(t *testing.T) {
	var r Ring[int]
	r.Push(1)
	r.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on an empty ring did not panic")
		}
	}()
	r.Pop()
}
