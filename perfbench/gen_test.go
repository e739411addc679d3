package main

import (
	"reflect"
	"testing"
)

func keys(g *distinctJobs, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.next().key
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	a, b := keys(newDistinctJobs(7, streamCold), 500), keys(newDistinctJobs(7, streamCold), 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serve-cold sequence differs between two generators with one seed")
	}
	if reflect.DeepEqual(a, keys(newDistinctJobs(8, streamCold), 500)) {
		t.Fatal("seeds 7 and 8 give the same serve-cold sequence")
	}
	if !reflect.DeepEqual(population(7), population(7)) {
		t.Fatal("serve-hit population differs between two calls with one seed")
	}
	r1, r2 := newUniformReads(7, hitPopulation), newUniformReads(7, hitPopulation)
	for i := 0; i < 1000; i++ {
		if r1.next() != r2.next() {
			t.Fatalf("serve-hit read %d differs between two generators with one seed", i)
		}
	}
}

func TestServeColdNeverRepeatsAKey(t *testing.T) {
	seen := map[string]bool{}
	for _, j := range warmJobs() {
		seen[j.key] = true
	}
	// More requests than any run sends at today's speed several times over.
	for i, k := range keys(newDistinctJobs(3, streamCold), 30000) {
		if seen[k] {
			t.Fatalf("request %d repeats key %s", i, k)
		}
		seen[k] = true
	}
}

func TestServeHitPopulationExceedsFleetLRU(t *testing.T) {
	pop := population(1)
	distinct := map[string]bool{}
	for _, j := range pop {
		distinct[j.key] = true
	}
	if len(distinct) != len(pop) {
		t.Fatalf("population has %d distinct keys of %d", len(distinct), len(pop))
	}
	if len(distinct) <= fleetWorkers*lruEntries {
		t.Fatalf("population %d does not exceed the fleet's combined LRU of %d", len(distinct), fleetWorkers*lruEntries)
	}
}
