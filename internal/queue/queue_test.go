package queue

import (
	"math/rand"
	"testing"
)

func TestFIFOOrder(t *testing.T) {
	q := New("t", 8)
	for i := uint64(0); i < 8; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(99) {
		t.Error("push succeeded on full queue")
	}
	for i := uint64(0); i < 8; i++ {
		s := q.Claim()
		if !q.Ready(s) {
			t.Fatalf("claim %d not ready", s)
		}
		if v := q.ValueAt(s); v != i {
			t.Fatalf("value at %d = %d, want %d", s, v, i)
		}
		q.Free(s)
	}
	if q.Avail() != 0 || q.Len() != 0 {
		t.Errorf("avail=%d len=%d after drain", q.Avail(), q.Len())
	}
}

func TestClaimBeforePush(t *testing.T) {
	q := New("t", 4)
	s := q.Claim() // consumer dispatched ahead of producer
	if q.Ready(s) {
		t.Error("claim ready before push")
	}
	q.Push(42)
	if !q.Ready(s) {
		t.Error("claim not ready after push")
	}
	if v := q.ValueAt(s); v != 42 {
		t.Errorf("value = %d", v)
	}
	q.Free(s)
}

func TestCapacityCountsUnfreedEntries(t *testing.T) {
	q := New("t", 4)
	var seqs []int64
	for i := uint64(0); i < 4; i++ {
		q.Push(i)
		seqs = append(seqs, q.Claim())
	}
	// All claimed but none freed: storage still held.
	if q.Push(9) {
		t.Error("push succeeded while entries unfreed")
	}
	q.Free(seqs[0])
	if !q.Push(9) {
		t.Error("push failed after Free released a slot")
	}
	if q.Len() != 4 {
		t.Errorf("Len=%d, want 4", q.Len())
	}
}

func TestUnclaimRedeliversInOrder(t *testing.T) {
	q := New("t", 8)
	for i := uint64(10); i < 15; i++ {
		q.Push(i)
	}
	a, b, c := q.Claim(), q.Claim(), q.Claim()
	if q.ValueAt(a) != 10 || q.ValueAt(b) != 11 || q.ValueAt(c) != 12 {
		t.Fatal("claim values wrong")
	}
	// Squash the two newest consumers; values must be re-claimable.
	q.Unclaim(2)
	b2, c2 := q.Claim(), q.Claim()
	if q.ValueAt(b2) != 11 || q.ValueAt(c2) != 12 {
		t.Error("redelivery after Unclaim wrong")
	}
}

func TestUnclaimPanicsOnOverflow(t *testing.T) {
	q := New("t", 2)
	q.Push(1)
	q.Claim()
	defer func() {
		if recover() == nil {
			t.Error("Unclaim(2) with 1 outstanding did not panic")
		}
	}()
	q.Unclaim(2)
}

func TestFreeOutOfOrderPanics(t *testing.T) {
	q := New("t", 4)
	q.Push(1)
	q.Push(2)
	q.Claim()
	s2 := q.Claim()
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Free did not panic")
		}
	}()
	q.Free(s2)
}

func TestValueAtFreedPanics(t *testing.T) {
	q := New("t", 2)
	q.Push(1)
	s := q.Claim()
	q.Free(s)
	defer func() {
		if recover() == nil {
			t.Error("ValueAt on freed entry did not panic")
		}
	}()
	q.ValueAt(s)
}

func TestValueAtUnpushedPanics(t *testing.T) {
	q := New("t", 2)
	s := q.Claim()
	defer func() {
		if recover() == nil {
			t.Error("ValueAt beyond tail did not panic")
		}
	}()
	q.ValueAt(s)
}

func TestPopCommitted(t *testing.T) {
	q := New("t", 2)
	q.Push(7)
	v, ok := q.PopCommitted()
	if !ok || v != 7 {
		t.Fatalf("PopCommitted: %d,%v", v, ok)
	}
	if q.Len() != 0 {
		t.Errorf("entry not freed: len=%d", q.Len())
	}
	if _, ok := q.PopCommitted(); ok {
		t.Error("PopCommitted succeeded on empty queue")
	}
}

func TestCloseSemantics(t *testing.T) {
	q := New("scq", 2)
	q.Push(1)
	q.Close()
	if !q.Closed() {
		t.Error("not closed")
	}
	// Queued entries remain consumable after close.
	if v, ok := q.PopCommitted(); !ok || v != 1 {
		t.Error("pop after close failed")
	}
	// Claims beyond the pushed count are trivially ready, read zero,
	// and free without effect.
	s := q.Claim()
	if !q.Ready(s) {
		t.Error("closed-queue claim not ready")
	}
	if v := q.ValueAt(s); v != 0 {
		t.Errorf("closed-queue value = %d", v)
	}
	q.Free(s) // must not panic
}

func TestResetPreservesStats(t *testing.T) {
	q := New("t", 2)
	q.Push(1)
	q.PopCommitted()
	q.Close()
	q.Reset()
	if q.Len() != 0 || q.Avail() != 0 || q.Closed() {
		t.Error("Reset did not clear state")
	}
	s := q.Stats()
	if s.Pushes != 1 || s.Claims != 1 {
		t.Errorf("Reset cleared stats: %+v", s)
	}
}

func TestWraparound(t *testing.T) {
	q := New("t", 3)
	next := uint64(0)
	expect := uint64(0)
	for round := 0; round < 50; round++ {
		for q.Push(next) {
			next++
		}
		for q.Avail() > 0 {
			v, _ := q.PopCommitted()
			if v != expect {
				t.Fatalf("round %d: got %d, want %d", round, v, expect)
			}
			expect++
		}
	}
}

// TestAgainstReferenceModel drives the queue with a random operation
// mix and cross-checks every observable against an infinite-log model.
func TestAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		capa := 1 + rng.Intn(16)
		q := New("ref", capa)
		var log []uint64
		var head, next int64
		var value uint64
		var claims []int64
		for step := 0; step < 400; step++ {
			switch rng.Intn(4) {
			case 0: // push
				ok := q.Push(value)
				wantOK := int64(len(log))-head < int64(capa)
				if ok != wantOK {
					t.Fatalf("trial %d step %d: push=%v want %v", trial, step, ok, wantOK)
				}
				if ok {
					log = append(log, value)
					value++
				}
			case 1: // claim
				s := q.Claim()
				if s != next {
					t.Fatalf("trial %d step %d: claim=%d want %d", trial, step, s, next)
				}
				claims = append(claims, s)
				next++
			case 2: // check readiness / value of oldest unfreed claim
				if len(claims) > 0 {
					s := claims[0]
					wantReady := s < int64(len(log))
					if q.Ready(s) != wantReady {
						t.Fatalf("trial %d step %d: ready=%v want %v", trial, step, q.Ready(s), wantReady)
					}
					if wantReady {
						if v := q.ValueAt(s); v != log[s] {
							t.Fatalf("trial %d step %d: value=%d want %d", trial, step, v, log[s])
						}
						// Free it (commit).
						if s == head {
							q.Free(s)
							head++
							claims = claims[1:]
						}
					}
				}
			case 3: // squash some recent claims
				if free := len(claims); free > 0 && rng.Intn(2) == 0 {
					k := 1 + rng.Intn(free)
					q.Unclaim(k)
					claims = claims[:len(claims)-k]
					next -= int64(k)
				}
			}
			if q.Len() != len(log)-int(head) {
				t.Fatalf("trial %d step %d: Len=%d want %d", trial, step, q.Len(), len(log)-int(head))
			}
			wantAvail := int64(len(log)) - next
			if wantAvail < 0 {
				wantAvail = 0
			}
			if int64(q.Avail()) != wantAvail {
				t.Fatalf("trial %d step %d: Avail=%d want %d", trial, step, q.Avail(), wantAvail)
			}
		}
	}
}

func TestStatsCounting(t *testing.T) {
	q := New("t", 4)
	q.Push(1)
	q.Push(2)
	q.Claim()
	q.Unclaim(1)
	s := q.Claim()
	q.Free(s)
	st := q.Stats()
	if st.Pushes != 2 || st.Claims != 2 || st.Unclaims != 1 || st.MaxOccupancy != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with capacity 0 did not panic")
		}
	}()
	New("t", 0)
}

func TestPeekFuture(t *testing.T) {
	q := New("t", 8)
	q.Push(10)
	q.Push(20)
	q.Push(30)
	if v, ok := q.PeekFuture(0); !ok || v != 10 {
		t.Errorf("peek 0 = %d,%v", v, ok)
	}
	if v, ok := q.PeekFuture(2); !ok || v != 30 {
		t.Errorf("peek 2 = %d,%v", v, ok)
	}
	if _, ok := q.PeekFuture(3); ok {
		t.Error("peek beyond tail succeeded")
	}
	// After a claim, peek 0 refers to the next unclaimed value.
	q.Claim()
	if v, ok := q.PeekFuture(0); !ok || v != 20 {
		t.Errorf("peek after claim = %d,%v", v, ok)
	}
	// Negative offsets (before the claim cursor) are rejected once freed.
	s := q.Claim()
	q.Free(0)
	q.Free(s)
	if _, ok := q.PeekFuture(-2); ok {
		t.Error("peek into freed storage succeeded")
	}
}

func TestPeekFutureIsNonDestructive(t *testing.T) {
	q := New("t", 4)
	q.Push(1)
	before := q.Stats()
	q.PeekFuture(0)
	q.PeekFuture(0)
	after := q.Stats()
	if before != after || q.Avail() != 1 {
		t.Error("PeekFuture mutated queue state")
	}
}
