// Package ring provides the FIFO queue behind the simulator's pop-front
// queues (writebacks, parked backing fetches, overflowed fills, flush
// buffers, rejected core writebacks): a power-of-two circular buffer
// that keeps its storage. A slice popped with q = q[1:] leaks its front
// capacity, so every append after a pop can reallocate; a Ring allocates
// only while it grows to its high-water mark.
package ring

// Ring is a FIFO queue. The zero value is empty and ready to use.
type Ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the front element
	n    int // queued elements
}

// minCap is the storage a Ring takes on its first Push.
const minCap = 4

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the back, doubling the storage when it is full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// At returns the i-th element from the front in place, 0 <= i < Len.
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.n {
		panic("ring: index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Front returns the front element in place; the ring must not be empty.
func (r *Ring[T]) Front() *T { return r.At(0) }

// Pop removes and returns the front element. The vacated slot is
// zeroed, so the ring keeps no popped pointer alive.
func (r *Ring[T]) Pop() T {
	p := r.Front()
	v := *p
	var zero T
	*p = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the storage, moving the queued elements to its front.
func (r *Ring[T]) grow() {
	buf := make([]T, max(minCap, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = *r.At(i)
	}
	r.buf, r.head = buf, 0
}
