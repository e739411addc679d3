// Package cluster turns single-node hidisc-serve processes into a
// shared-nothing fleet: a Coordinator routes jobs to N workers by
// consistent-hashing the canonical experiments.Job.Key(), so each
// worker's LRU cache, durable result store, and singleflight dedup
// stay effective for its shard of the key space with no cross-shard
// duplication. Workers register and heartbeat over the existing HTTP
// wire (Agent is the worker-side loop); a worker that dies mid-batch
// has its in-flight jobs requeued onto the ring minus the dead node —
// content addressing makes the replays free. Admission aggregates
// fleet-wide (429 + EWMA Retry-After over per-worker depth), and the
// coordinator exposes merged /metrics and per-worker /healthz, so the
// fleet presents the same API surface as one hidisc-serve.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// ringReplicas is the number of virtual nodes each worker contributes
// to the ring. More replicas smooth the key distribution (the expected
// per-node share concentrates around 1/N) at the cost of a larger
// sorted point list; 128 keeps an 8-worker ring at 1024 points, small
// enough that a lookup is one binary search over a contiguous slice.
const ringReplicas = 128

// Ring is a consistent-hash ring over node names. Placement is
// deterministic and stable across processes: both virtual-node
// positions and key lookups hash with sha256, so every coordinator
// (and every test) agrees on where a key lives. The zero number of
// nodes is valid — Pick returns "" until a node joins.
//
// Consistent hashing is what makes membership churn cheap: when a node
// joins or leaves, only the keys on the arcs it owns move (expected
// 1/N of the key space), so the surviving workers keep almost all of
// their cache and store locality. RingTestMovement pins that bound.
//
// Ring is not goroutine-safe; the fleet serializes access under its
// own lock.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{nodes: map[string]bool{}}
}

// ringHash maps a string to its position on the ring.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a node and its virtual replicas. Adding a present node
// is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < ringReplicas; i++ {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		r.points = append(r.points, ringPoint{
			hash: ringHash("vnode|" + node + "|" + string(buf[:])),
			node: node,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a node and its replicas. Removing an absent node is a
// no-op.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports membership.
func (r *Ring) Has(node string) bool { return r.nodes[node] }

// Len returns the number of (real) nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Pick returns the node owning key: the first virtual node clockwise
// from the key's hash. Empty ring picks "".
func (r *Ring) Pick(key string) string {
	return r.PickExcluding(key, nil)
}

// PickExcluding returns the owner of key after skipping excluded
// nodes: the routing primitive for requeue-on-death, where a job is
// re-placed on "the ring minus the dead node". Walking clockwise past
// excluded owners preserves the consistent-hashing property — keys
// whose owner is healthy do not move at all. Returns "" when every
// node is excluded (or the ring is empty).
func (r *Ring) PickExcluding(key string, excluded map[string]bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash("key|" + key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for n := 0; n < len(r.points); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !excluded[p.node] {
			return p.node
		}
	}
	return ""
}
