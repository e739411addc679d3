package cluster

import (
	"io"
	"log/slog"
	"testing"
	"time"

	"hidisc/internal/simclient"
)

// testFleet builds a fleet on a fake clock: TTL 3s, heartbeat 1s.
func testFleet() (*fleet, *time.Time) {
	now := time.Unix(1_000_000, 0)
	f := newFleet(time.Second, 3*time.Second, simclient.Options{}, slog.New(slog.NewJSONHandler(io.Discard, nil)))
	f.now = func() time.Time { return now }
	return f, &now
}

// TestFleetTTLStateMachine walks one worker through the heartbeat
// state machine on an injected clock: alive while beating, suspect
// after TTL of silence (still routable — one missed beat must not
// reshard the key space), dead after 2×TTL (out of the ring, onDeath
// fired, heartbeats refused), alive again after re-registering.
func TestFleetTTLStateMachine(t *testing.T) {
	f, now := testFleet()
	var deaths []string
	f.onDeath = func(url, reason string) { deaths = append(deaths, url) }

	f.Register(RegisterRequest{URL: "http://w1", Workers: 2, Queue: 4})
	if got := f.State("http://w1"); got != StateAlive {
		t.Fatalf("after register: state %q, want alive", got)
	}
	if f.AliveCount() != 1 {
		t.Fatalf("after register: AliveCount %d, want 1", f.AliveCount())
	}

	// Silent past TTL: suspect, but still in the ring.
	*now = now.Add(3*time.Second + 500*time.Millisecond)
	f.Sweep()
	if got := f.State("http://w1"); got != StateSuspect {
		t.Fatalf("past TTL: state %q, want suspect", got)
	}
	if f.AliveCount() != 1 {
		t.Fatalf("suspect worker must stay in the ring; AliveCount %d", f.AliveCount())
	}

	// A heartbeat revives a suspect.
	if !f.Heartbeat(HeartbeatRequest{URL: "http://w1"}) {
		t.Fatal("heartbeat from a suspect worker must be accepted")
	}
	if got := f.State("http://w1"); got != StateAlive {
		t.Fatalf("after heartbeat: state %q, want alive", got)
	}

	// Silent past 2×TTL: dead, out of the ring, death callback fired.
	*now = now.Add(6*time.Second + 500*time.Millisecond)
	f.Sweep()
	if got := f.State("http://w1"); got != StateDead {
		t.Fatalf("past 2xTTL: state %q, want dead", got)
	}
	if f.AliveCount() != 0 {
		t.Fatalf("dead worker must leave the ring; AliveCount %d", f.AliveCount())
	}
	if len(deaths) != 1 || deaths[0] != "http://w1" {
		t.Fatalf("onDeath calls = %v, want one for w1", deaths)
	}

	// Heartbeats from the dead are refused (the wire answers 404, which
	// tells the worker to re-register)...
	if f.Heartbeat(HeartbeatRequest{URL: "http://w1"}) {
		t.Fatal("heartbeat from a dead worker must be refused")
	}
	// ...and re-registration revives it.
	f.Register(RegisterRequest{URL: "http://w1", Workers: 2, Queue: 4})
	if got := f.State("http://w1"); got != StateAlive {
		t.Fatalf("after re-register: state %q, want alive", got)
	}
	if f.AliveCount() != 1 {
		t.Fatalf("after re-register: AliveCount %d, want 1", f.AliveCount())
	}
}

// TestFleetMarkDead pins transport-failure death: immediate ring
// removal, exactly one death callback no matter how many in-flight
// forwards report the same corpse.
func TestFleetMarkDead(t *testing.T) {
	f, _ := testFleet()
	var deaths int
	f.onDeath = func(url, reason string) { deaths++ }

	f.Register(RegisterRequest{URL: "http://w1", Workers: 1, Queue: 1})
	f.Register(RegisterRequest{URL: "http://w2", Workers: 1, Queue: 1})
	f.MarkDead("http://w1", "connection refused")
	f.MarkDead("http://w1", "connection refused") // racing forwards
	if deaths != 1 {
		t.Fatalf("deaths = %d, want 1 (idempotent MarkDead)", deaths)
	}
	if f.AliveCount() != 1 {
		t.Fatalf("AliveCount = %d, want 1", f.AliveCount())
	}
	if url, _ := f.PickClient("anykey", nil); url != "http://w2" {
		t.Fatalf("routing after death picked %q, want the survivor", url)
	}
}

// TestFleetDeregister pins graceful departure: dynamic workers vanish,
// static (command-line) workers stay tracked dead so the prober can
// re-admit them, and neither counts as a death.
func TestFleetDeregister(t *testing.T) {
	f, _ := testFleet()
	var deaths int
	f.onDeath = func(url, reason string) { deaths++ }

	f.Register(RegisterRequest{URL: "http://dyn", Workers: 1, Queue: 1})
	f.AddStatic("http://stat")
	f.Register(RegisterRequest{URL: "http://stat", Workers: 1, Queue: 1})

	if !f.Deregister("http://dyn") {
		t.Fatal("deregistering a member must report true")
	}
	if got := f.State("http://dyn"); got != "" {
		t.Fatalf("dynamic worker still tracked after deregister (state %q)", got)
	}
	if !f.Deregister("http://stat") {
		t.Fatal("deregistering the static member must report true")
	}
	if got := f.State("http://stat"); got != StateDead {
		t.Fatalf("static worker state %q after deregister, want dead (kept for probing)", got)
	}
	if f.AliveCount() != 0 {
		t.Fatalf("AliveCount = %d, want 0", f.AliveCount())
	}
	if deaths != 0 {
		t.Fatalf("graceful departures counted as %d deaths, want 0", deaths)
	}
	if f.Deregister("http://unknown") {
		t.Fatal("deregistering an unknown worker must report false")
	}
}

// TestFleetOccupancy pins the admission inputs: dead and draining
// workers contribute no capacity, but their in-flight forwards still
// count (the jobs are real until they finish or fail).
func TestFleetOccupancy(t *testing.T) {
	f, _ := testFleet()
	f.Register(RegisterRequest{URL: "http://w1", Workers: 2, Queue: 8})
	f.Register(RegisterRequest{URL: "http://w2", Workers: 2, Queue: 8})
	f.Begin("http://w1")
	f.Begin("http://w1")
	f.Begin("http://w2")

	inFlight, capacity, pool := f.Occupancy()
	if inFlight != 3 || capacity != 20 || pool != 4 {
		t.Fatalf("Occupancy = (%d,%d,%d), want (3,20,4)", inFlight, capacity, pool)
	}

	f.MarkDead("http://w2", "test")
	inFlight, capacity, pool = f.Occupancy()
	if inFlight != 3 || capacity != 10 || pool != 2 {
		t.Fatalf("Occupancy after death = (%d,%d,%d), want (3,10,2)", inFlight, capacity, pool)
	}

	f.End("http://w1")
	inFlight, _, _ = f.Occupancy()
	if inFlight != 2 {
		t.Fatalf("inFlight after End = %d, want 2", inFlight)
	}
}
