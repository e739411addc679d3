// Package queue implements the architectural FIFO queues that connect
// the HiDISC processors (LDQ, SDQ, CQ, SCQ).
//
// The consumer is an out-of-order core, so the queue separates three
// events that a software FIFO would merge into one "pop":
//
//   - Claim: at dispatch the consuming instruction claims the next
//     FIFO sequence number, in program order. Claiming never blocks;
//     it only establishes the pairing between the k-th push and the
//     k-th consumer.
//   - Ready/ValueAt: the claimed value behaves like a register
//     dependency — the instruction becomes ready once the producer has
//     pushed the matching entry. This is what lets the Access
//     Processor dispatch a store whose data is still being computed
//     and keep running ahead (the paper's SAQ/SDQ matching).
//   - Free: when the consuming instruction commits, the entry's
//     storage is released. Entries are freed strictly in sequence
//     order because the consumer commits in order.
//
// Squash recovery simply un-claims (Unclaim); no data moves because
// storage is only released at commit. Producers push at commit and
// block while the queue is full, which is the hardware backpressure.
package queue

import (
	"fmt"

	"hidisc/internal/simfault"
)

// Queue is a bounded FIFO of 64-bit values with sequence-claimed pops.
// The zero value is not usable; call New.
type Queue struct {
	name string
	buf  []uint64
	head int64 // entries freed (absolute count)
	tail int64 // entries pushed (absolute count)
	next int64 // claims issued (absolute count)

	closed bool

	// epoch, when attached, is a machine-wide event counter bumped on
	// every externally visible mutation of any attached queue. The
	// cores' idle fast paths snapshot it: an unchanged epoch proves no
	// queue a component could be waiting on has changed state.
	epoch *int64

	// probe, when attached, observes data movement for the machine-wide
	// trace sink. Nil (the default) costs one pointer check per push and
	// free, pinned by the AllocsPerRun test.
	probe Probe

	// wake, when attached, is the consumer core's push-wakeup callback.
	// waiters holds the claims whose consuming instructions are parked
	// on this queue, sorted by seq (claims are issued in program order);
	// wHead indexes the first still-parked waiter. A push drains every
	// waiter whose claim it satisfies, so the consumer never polls.
	wake    func(tag uint64)
	waiters []waiter
	wHead   int

	stats Stats
}

// waiter parks a consumer-side reference until the claim's value
// arrives. The tag is opaque to the queue — the core packs a
// generation-checked window handle into it, so a waiter that outlives
// its instruction (squash) wakes into a stale-handle no-op.
type waiter struct {
	seq int64
	tag uint64
}

// Probe observes a queue's externally visible data events for the
// telemetry trace sink: a successful push and a storage release
// (free), each reporting the occupancy after the event. Implementations
// must be fast and must not touch the queue — they run inside the
// simulation loop and must not perturb results.
type Probe interface {
	QueuePush(name string, occupancy int)
	QueuePop(name string, occupancy int)
}

// Stats counts queue traffic for the simulator's reports.
type Stats struct {
	Pushes          uint64
	Claims          uint64
	Unclaims        uint64
	MaxOccupancy    int
	OccupancyCycles int64 // sum over cycles of Len() — time-integrated occupancy
}

// New returns an empty queue with the given capacity.
func New(name string, capacity int) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue %q: capacity %d must be positive", name, capacity))
	}
	return &Queue{name: name, buf: make([]uint64, capacity)}
}

// SetEpoch attaches a shared event counter. Every externally visible
// mutation (push, claim, unclaim, free, close, reopen, reset) bumps
// it, so a component that snapshotted the counter during an idle cycle
// can prove "no queue changed since" with a single comparison.
func (q *Queue) SetEpoch(p *int64) { q.epoch = p }

// SetProbe attaches an event observer (nil detaches).
func (q *Queue) SetProbe(p Probe) { q.probe = p }

// SetWake attaches the consuming core's push-wakeup callback. A queue
// has exactly one consumer (the machine wires each pop side to one
// core), so a single callback suffices. Must be set before AddWaiter.
func (q *Queue) SetWake(fn func(tag uint64)) { q.wake = fn }

// AddWaiter parks an opaque consumer tag until claim seq is satisfied.
// The consumer claims in program order, so seqs arrive non-decreasing;
// that keeps the list sorted and makes the push-side drain O(woken).
func (q *Queue) AddWaiter(seq int64, tag uint64) {
	if q.wake == nil {
		panic(fmt.Sprintf("queue %q: AddWaiter without SetWake", q.name))
	}
	if n := len(q.waiters); n > q.wHead && q.waiters[n-1].seq > seq {
		panic(fmt.Sprintf("queue %q: AddWaiter(%d) out of order (last %d)", q.name, seq, q.waiters[n-1].seq))
	}
	if q.wHead == len(q.waiters) {
		q.waiters = q.waiters[:0]
		q.wHead = 0
	} else if q.wHead > 0 && len(q.waiters) == cap(q.waiters) {
		n := copy(q.waiters, q.waiters[q.wHead:])
		q.waiters = q.waiters[:n]
		q.wHead = 0
	}
	q.waiters = append(q.waiters, waiter{seq: seq, tag: tag})
}

// wakeSatisfied drains waiters whose claims are now ready (pushed, or
// any claim once the queue is closed — closed queues read as zero).
func (q *Queue) wakeSatisfied() {
	for q.wHead < len(q.waiters) && (q.waiters[q.wHead].seq < q.tail || q.closed) {
		tag := q.waiters[q.wHead].tag
		q.wHead++
		q.wake(tag)
	}
	if q.wHead == len(q.waiters) {
		q.waiters = q.waiters[:0]
		q.wHead = 0
	}
}

// Spawn returns a fresh generation of this queue: same name, capacity,
// epoch counter, and consumer wakeup, but empty state. The CMP engine
// uses it when a fork replaces a finished CMAS thread's SCQ — claims
// bound to the old generation keep resolving (and unwinding) against
// the old object, while new claims bind to the new one. The telemetry
// probe is deliberately not carried over: the machine registers probes
// on the original generation only.
func (q *Queue) Spawn() *Queue {
	nq := New(q.name, len(q.buf))
	nq.epoch = q.epoch
	nq.wake = q.wake
	return nq
}

func (q *Queue) bump() {
	if q.epoch != nil {
		*q.epoch++
	}
}

// Name returns the queue's name (for diagnostics).
func (q *Queue) Name() string { return q.name }

// Cap returns the queue capacity.
func (q *Queue) Cap() int { return len(q.buf) }

// Len returns the number of entries holding storage (pushed, not yet
// freed) — the hardware occupancy.
func (q *Queue) Len() int { return int(q.tail - q.head) }

// Avail returns the number of pushed entries not yet claimed.
func (q *Queue) Avail() int {
	n := q.tail - q.next
	if n < 0 {
		return 0
	}
	return int(n)
}

// Full reports whether a Push would fail.
func (q *Queue) Full() bool { return q.Len() == len(q.buf) }

// Empty reports whether no unclaimed values are available.
func (q *Queue) Empty() bool { return q.Avail() == 0 }

// Closed reports whether the producer has closed the queue (used by
// the slip-control queue: a finished CMAS thread closes its SCQ so the
// Access Processor does not wait forever for credits).
func (q *Queue) Closed() bool { return q.closed }

// Close marks the queue closed. Pushed entries remain consumable;
// claims beyond the pushed count become trivially ready with value 0.
func (q *Queue) Close() {
	q.closed = true
	q.bump()
	if q.wake != nil {
		q.wakeSatisfied()
	}
}

// Push appends v. It reports false when the queue is full.
func (q *Queue) Push(v uint64) bool {
	if q.Full() {
		return false
	}
	q.buf[q.tail%int64(len(q.buf))] = v
	q.tail++
	q.stats.Pushes++
	q.bump()
	if n := q.Len(); n > q.stats.MaxOccupancy {
		q.stats.MaxOccupancy = n
	}
	if q.probe != nil {
		q.probe.QueuePush(q.name, q.Len())
	}
	if q.wake != nil {
		q.wakeSatisfied()
	}
	return true
}

// Claim assigns the next FIFO sequence number to a consumer, in
// program order. It never blocks.
func (q *Queue) Claim() int64 {
	s := q.next
	q.next++
	q.stats.Claims++
	q.bump()
	return s
}

// Unclaim rewinds the k most recent claims (consumer squash).
func (q *Queue) Unclaim(k int) {
	if k < 0 || int64(k) > q.next-q.head {
		panic(fmt.Sprintf("queue %q: Unclaim(%d) with %d outstanding", q.name, k, q.next-q.head))
	}
	q.next -= int64(k)
	q.stats.Unclaims += uint64(k)
	// Drop waiters parked on the rewound claims: the same seq numbers
	// will be re-claimed after the squash, and the sorted invariant
	// requires the dead registrations gone before then.
	for n := len(q.waiters); n > q.wHead && q.waiters[n-1].seq >= q.next; n-- {
		q.waiters = q.waiters[:n-1]
	}
	q.bump()
}

// Ready reports whether the value for claim seq has been pushed (or
// the queue is closed, in which case missing values read as zero).
func (q *Queue) Ready(seq int64) bool {
	return seq < q.tail || q.closed
}

// ValueAt returns the value for claim seq. The caller has checked
// Ready; claims beyond the pushed count on a closed queue read zero.
func (q *Queue) ValueAt(seq int64) uint64 {
	if seq >= q.tail {
		if q.closed {
			return 0
		}
		panic(fmt.Sprintf("queue %q: ValueAt(%d) beyond tail %d", q.name, seq, q.tail))
	}
	if seq < q.head {
		panic(fmt.Sprintf("queue %q: ValueAt(%d) already freed (head %d)", q.name, seq, q.head))
	}
	return q.buf[seq%int64(len(q.buf))]
}

// Free releases the storage of claim seq; called when the consuming
// instruction commits. Frees arrive in sequence order because the
// consumer commits in order; claims that were satisfied by a closed
// queue (seq beyond tail) own no storage and are ignored.
func (q *Queue) Free(seq int64) {
	if seq >= q.tail {
		if q.closed {
			return
		}
		panic(fmt.Sprintf("queue %q: Free(%d) beyond tail %d", q.name, seq, q.tail))
	}
	if seq != q.head {
		panic(fmt.Sprintf("queue %q: Free(%d) out of order (head %d)", q.name, seq, q.head))
	}
	q.head++
	q.bump()
	if q.probe != nil {
		q.probe.QueuePop(q.name, q.Len())
	}
}

// PeekFuture inspects the value the (claims+k)-th pop will return, if
// it has already been pushed. The consumer's fetch stage uses this to
// steer down queued control tokens instead of predicting; it is only a
// hint — the dispatch-time claim remains authoritative.
func (q *Queue) PeekFuture(k int) (uint64, bool) {
	s := q.next + int64(k)
	if s < q.head || s >= q.tail {
		return 0, false
	}
	return q.buf[s%int64(len(q.buf))], true
}

// PopCommitted performs claim+read+free in one step for in-order
// consumers (the functional co-simulation). It reports false when no
// unclaimed value is available.
func (q *Queue) PopCommitted() (uint64, bool) {
	if q.Avail() == 0 {
		return 0, false
	}
	s := q.Claim()
	v := q.ValueAt(s)
	q.Free(s)
	return v, true
}

// Reset empties the queue and clears the closed flag. Statistics are
// preserved.
func (q *Queue) Reset() {
	q.head, q.tail, q.next = 0, 0, 0
	q.closed = false
	q.waiters = q.waiters[:0]
	q.wHead = 0
	q.bump()
}

// Stats returns a copy of the traffic counters.
func (q *Queue) Stats() Stats { return q.stats }

// Tick accumulates the time-integrated occupancy: the current Len held
// for the given number of cycles. The machine calls it once per ticked
// cycle (cycles=1) and once per fast-forwarded idle span (cycles=n);
// occupancy is frozen while every consumer and producer is idle, so
// both paths integrate identically.
func (q *Queue) Tick(cycles int64) {
	q.stats.OccupancyCycles += int64(q.Len()) * cycles
}

// State captures the queue's occupancy and traffic for a fault
// snapshot.
func (q *Queue) State() simfault.QueueState {
	return simfault.QueueState{
		Name:     q.name,
		Len:      q.Len(),
		Cap:      len(q.buf),
		Avail:    q.Avail(),
		Closed:   q.closed,
		Pushes:   q.stats.Pushes,
		Claims:   q.stats.Claims,
		Unclaims: q.stats.Unclaims,
	}
}

// String summarises the queue state.
func (q *Queue) String() string {
	return fmt.Sprintf("%s[len=%d/%d avail=%d closed=%v]", q.name, q.Len(), len(q.buf), q.Avail(), q.closed)
}
