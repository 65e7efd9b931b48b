// Package pool exercises poollife: use-after-release of freelist
// records and untagged escapes of pooled pointers.
package pool

// sched stands in for sim.Simulator's scheduling surface.
type sched struct{}

func (s *sched) ScheduleArgAt(at int, fn func(any), arg any) {}

// queue stands in for ring.Ring: a generic FIFO whose Push takes a type
// parameter.
type queue[T any] struct{ items []T }

func (q *queue[T]) Push(v T) { q.items = append(q.items, v) }

// fetch stands in for backing.Memory.ReadArg: the completion argument is
// an interface.
func fetch(line int, arg any) {}

func logAll(vs ...any) {}

// pending stands in for dramcache's pendingMM: a parked fetch carrying
// its completion argument.
type pending struct {
	line int
	arg  any
}

// rec is a pooled record: the intrusive next link marks it.
type rec struct {
	val  int
	next *rec
}

// taggedRec carries a generation field, so outstanding references are
// checkable and escapes are fine.
type taggedRec struct {
	val  int
	gen  uint64
	next *taggedRec
}

// plain has no freelist link: not pooled, never flagged.
type plain struct{ val int }

// node is doubly-linked — a container shape, not a freelist. Never
// flagged (container/list.Element must not look pooled).
type node struct {
	val  int
	next *node
	prev *node
}

type owner struct {
	free  *rec
	tfree *taggedRec
	q     []*rec
	tq    []*taggedRec
	slot  *rec
	s     sched
	rq    queue[*rec]
	trq   queue[*taggedRec]
	park  []pending
}

func (o *owner) get() *rec {
	r := o.free
	if r == nil {
		return &rec{}
	}
	o.free = r.next
	r.val = 0
	return r
}

func (o *owner) put(r *rec) {
	r.next = o.free
	o.free = r
}

// ---- firing: reads and writes after the release call ----

func (o *owner) useAfterPut(r *rec) int {
	o.put(r)
	return r.val // want `pooled record r is used after being released`
}

func (o *owner) writeAfterPush(r *rec) {
	r.next = o.free
	o.free = r
	r.val = 1 // want `pooled record r is used after being released`
}

// ---- passing: save what you need before releasing ----

func (o *owner) saveThenPut(r *rec) int {
	v := r.val
	o.put(r)
	return v
}

// ---- passing: reacquiring from the pool ends the taint ----

func (o *owner) recycleTwice() {
	r := o.get()
	o.put(r)
	r = o.get()
	r.val = 2
	o.put(r)
}

// ---- passing: release as the last statement of a loop body ----

func (o *owner) drainLoop() {
	for i := 0; i < 4; i++ {
		r := o.get()
		r.val = i
		o.put(r)
	}
}

// ---- firing: untagged escapes ----

func (o *owner) stash(r *rec) {
	o.slot = r // want `pooled \*rec stored into field slot without a generation tag`
}

func (o *owner) enqueue(r *rec) {
	o.q = append(o.q, r) // want `pooled \*rec appended to a slice without a generation tag`
}

func (o *owner) schedule(r *rec) {
	o.s.ScheduleArgAt(1, nil, r) // want `pooled \*rec passed to ScheduleArgAt without a generation tag`
}

func (o *owner) pushGeneric(r *rec) {
	o.rq.Push(r) // want `pooled \*rec passed to Push without a generation tag`
}

func (o *owner) fetchInterface(r *rec) {
	fetch(1, r)  // want `pooled \*rec passed to fetch without a generation tag`
	logAll(1, r) // want `pooled \*rec passed to logAll without a generation tag`
}

func (o *owner) parkLiteral(r *rec) {
	o.park = append(o.park, pending{line: 1, arg: r}) // want `pooled \*rec placed in field arg of a composite literal without a generation tag`
	_ = []*rec{r}                                     // want `pooled \*rec placed in a composite literal without a generation tag`
}

// ---- passing: the same escapes with a generation-tagged record ----

func (o *owner) scheduleTagged(r *taggedRec) {
	o.tq = append(o.tq, r)
	o.s.ScheduleArgAt(1, nil, r)
	o.trq.Push(r)
	fetch(1, r)
	o.park = append(o.park, pending{arg: r})
}

// ---- passing: a parameter of the pooled type itself is a use ----

func (o *owner) consume(r *rec) int { return r.val }

func (o *owner) handOff(r *rec) int {
	f := func(r *rec) int { return r.val }
	return o.consume(r) + f(r)
}

// ---- passing: the freelist reset literal is the pool's plumbing ----

func (o *owner) reset(r *rec) {
	*r = rec{next: o.free}
	o.free = r
}

// ---- passing: non-pooled types escape freely ----

func (o *owner) schedulePlain(p *plain, ps []*plain) {
	o.s.ScheduleArgAt(1, nil, p)
	_ = append(ps, p)
}

func storeNode(m map[int]*node, n *node) {
	m[n.val] = n
	n.next = nil
}

// ---- passing: the pool's own plumbing is not an escape ----

func (o *owner) plumbing(r *rec) *rec {
	r.next = o.free // intrusive link
	o.free = r      // freelist head
	return nil
}

// ---- allow: a documented single-owner escape ----

func (o *owner) allowedEscape(r *rec) {
	//tdlint:allow poollife — the scheduled event is the only live reference and releases on fire
	o.s.ScheduleArgAt(1, nil, r)
}
