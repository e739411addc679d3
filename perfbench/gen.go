package main

import (
	"math/rand/v2"
	"sync"

	"hidisc/internal/experiments"
	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/simserver"
	"hidisc/internal/workloads"
)

// The service workloads draw test-scale jobs from workload × arch × a
// bounded grid of hierarchy latencies. The bounds keep every job's cost
// close to the others while leaving far more distinct keys than any run
// can consume, so serve-cold never repeats a key.
const (
	genL2Lo, genL2N   = 13, 32   // L2 latency 13..44 cycles
	genMemLo, genMemN = 121, 256 // memory latency 121..376 cycles

	// warmMem is the memory latency of the compile warm-up jobs, below
	// the generator's range so warm-up keys never collide with generated
	// ones.
	warmMem = 100

	fleetWorkers = 2   // simserver workers behind the coordinator
	lruEntries   = 128 // per-worker result LRU
	// hitPopulation is serve-hit's key population: twice the fleet's
	// combined LRU, so reads split between LRU hits and store reads.
	hitPopulation = 2 * fleetWorkers * lruEntries
)

var genWorkloads = workloads.Names()

func genSpace() int { return len(genWorkloads) * len(machine.Arches) * genL2N * genMemN }

// genJob is one generated request together with the key the service
// must answer it under.
type genJob struct {
	req simserver.JobRequest
	key string
}

// jobAt decodes a point of the generator's job space.
func jobAt(idx int) genJob {
	w := genWorkloads[idx%len(genWorkloads)]
	idx /= len(genWorkloads)
	a := machine.Arches[idx%len(machine.Arches)]
	idx /= len(machine.Arches)
	l2 := genL2Lo + idx%genL2N
	m := genMemLo + idx/genL2N
	return makeJob(w, a, mem.DefaultHierConfig().WithLatencies(l2, m))
}

func makeJob(w string, a machine.Arch, h mem.HierConfig) genJob {
	j := experiments.Job{Workload: w, Arch: a, Hier: h, Scale: workloads.ScaleTest}
	return genJob{
		req: simserver.JobRequest{Workload: w, Arch: a, Hier: simserver.HierJSON(h), Scale: simserver.ScaleName(j.Scale)},
		key: j.Key(),
	}
}

// warmJobs are one job per workload, for compiling every workload on a
// fresh server.
func warmJobs() []genJob {
	h := mem.DefaultHierConfig().WithLatencies(mem.DefaultHierConfig().L2.Latency, warmMem)
	out := make([]genJob, len(genWorkloads))
	for i, w := range genWorkloads {
		out[i] = makeJob(w, machine.Superscalar, h)
	}
	return out
}

// distinctJobs yields jobs that never repeat, in an order fixed by the
// seed. Safe for concurrent use: the i-th call returns the i-th job of
// the sequence whichever client makes it.
type distinctJobs struct {
	mu   sync.Mutex
	rng  *rand.Rand
	seen map[int]bool
}

func newDistinctJobs(seed, stream uint64) *distinctJobs {
	return &distinctJobs{rng: rand.New(rand.NewPCG(seed, stream)), seen: map[int]bool{}}
}

func (g *distinctJobs) next() genJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.seen) >= genSpace() {
		panic("perfbench: job space exhausted")
	}
	for {
		idx := g.rng.IntN(genSpace())
		if !g.seen[idx] {
			g.seen[idx] = true
			return jobAt(idx)
		}
	}
}

// Stream numbers keep the workloads' random sequences independent.
const (
	streamCold = 1
	streamPop  = 2
	streamRead = 3
	streamFig8 = 4
)

// population returns serve-hit's key population for a seed.
func population(seed uint64) []genJob {
	g := newDistinctJobs(seed, streamPop)
	out := make([]genJob, hitPopulation)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// uniformReads picks population indices uniformly, in an order fixed by
// the seed; safe for concurrent use.
type uniformReads struct {
	mu  sync.Mutex
	rng *rand.Rand
	n   int
}

func newUniformReads(seed uint64, n int) *uniformReads {
	return &uniformReads{rng: rand.New(rand.NewPCG(seed, streamRead)), n: n}
}

func (u *uniformReads) next() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.rng.IntN(u.n)
}
