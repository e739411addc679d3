package main

import (
	"fmt"
	"strings"

	"hidisc/internal/tracing"
)

// spans snapshots every process's span ring and the number of spans
// the rings evicted.
func (f *fleet) spans() ([]*tracing.Span, int64) {
	var all []*tracing.Span
	var dropped int64
	for _, t := range f.tracers {
		all = append(all, t.Spans("")...)
		dropped += t.Dropped()
	}
	return all, dropped
}

func spanInterval(s *tracing.Span) interval {
	return interval{s.StartUnixNs, s.StartUnixNs + s.DurationNs}
}

// spanSelf is a span's duration minus what its children cover.
func spanSelf(s *tracing.Span, kids []*tracing.Span) int64 {
	iv := make([]interval, len(kids))
	for i, k := range kids {
		iv[i] = spanInterval(k)
	}
	return selfTime(spanInterval(s), iv)
}

// serviceLedger turns the traced window's spans into the per-layer
// service metrics. Spans are the program's own (the ones GET /v1/traces
// serves); each request's tree is found by the request ID the client
// sent. A request counts only if its coordinator root span is present.
func serviceLedger(rep *report, spans []*tracing.Span, reqs []reqRecord) error {
	byReq := map[string][]*tracing.Span{}
	for _, s := range spans {
		byReq[s.RequestID] = append(byReq[s.RequestID], s)
	}
	var (
		coordSelf, admit, attempt, hop, serveSelf    dist
		lookup, storeRead, queueWait, simulate, apnd dist
		client, attributed, unattributed             dist

		attempts, lookups, lookupHits, reads, readHits, flights, dedups int
		analysed                                                        int
	)
	const ms, us = 1e6, 1e3
	for _, r := range reqs {
		tree := byReq[r.id]
		kids := map[string][]*tracing.Span{}
		var root *tracing.Span
		for _, s := range tree {
			kids[s.ParentID] = append(kids[s.ParentID], s)
			if strings.HasPrefix(s.Name, "coord ") {
				root = s
			}
		}
		if root == nil {
			continue
		}
		analysed++
		var hopNs int64
		for _, s := range tree {
			self := spanSelf(s, kids[s.SpanID])
			d := float64(s.DurationNs)
			switch {
			case s == root:
				coordSelf.add(float64(self) / ms)
			case s.Name == "coord.admit":
				admit.add(d / us)
			case s.Name == "coord.attempt":
				attempts++
				attempt.add(d / ms)
			case strings.HasPrefix(s.Name, "client "):
				// The coordinator's outbound call to the worker: its self
				// time is the loopback hop, work of neither layer.
				hopNs += self
				hop.add(float64(self) / ms)
			case strings.HasPrefix(s.Name, "serve "):
				serveSelf.add(float64(self) / ms)
			case s.Name == "serve.cache.lookup":
				lookups++
				if s.Attrs["hit"] == "true" {
					lookupHits++
				}
				lookup.add(d / us)
			case s.Name == "serve.store.read":
				reads++
				if s.Attrs["hit"] == "true" {
					readHits++
				}
				storeRead.add(d / us)
			case s.Name == "serve.flight":
				flights++
				if s.Attrs["deduped"] == "true" {
					dedups++
				}
			case s.Name == "serve.queue.wait":
				queueWait.add(d / ms)
			case s.Name == "serve.simulate":
				simulate.add(d / ms)
			case s.Name == "serve.store.append":
				apnd.add(d / ms)
			}
		}
		// Every span's self time belongs to a layer except the
		// coordinator's outbound client span, whose self time is the
		// loopback hop; so the attributed time is the root's duration
		// minus that hop.
		att := float64(root.DurationNs-hopNs) / ms
		client.add(r.ms)
		attributed.add(att)
		unattributed.add(r.ms - att)
	}
	if analysed < len(reqs)/2 {
		return fmt.Errorf("traced window: only %d of %d requests have their spans", analysed, len(reqs))
	}
	rep.note("traced requests analysed: %d of %d", analysed, len(reqs))
	rep.setDist("coord.self_ms", &coordSelf)
	rep.setDist("coord.admit_us", &admit)
	rep.setDist("coord.attempt_ms", &attempt)
	rep.setDist("coord.hop_ms", &hop)
	rep.set("coord.attempts_per_job", ratio(attempts, analysed))
	rep.setDist("serve.self_ms", &serveSelf)
	rep.setDist("serve.cache.lookup_us", &lookup)
	rep.set("serve.cache.hit_ratio", ratio(lookupHits, lookups))
	rep.set("serve.flight.dedup_ratio", ratio(dedups, flights))
	rep.setDist("serve.queue.wait_ms", &queueWait)
	rep.setDist("serve.simulate_ms", &simulate)
	rep.setDist("store.read_us", &storeRead)
	rep.set("store.hit_ratio", ratio(readHits, reads))
	rep.setDist("store.append_ms", &apnd)
	rep.setDist("trace.client_ms", &client)
	rep.setDist("trace.attributed_ms", &attributed)
	rep.setDist("trace.unattributed_ms", &unattributed)
	return nil
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// serviceIdle reports the service layers as idle (0) on a workload that
// sends no requests.
func serviceIdle(rep *report) {
	for _, d := range layerDefs() {
		for _, p := range []string{"coord.", "serve.", "store.", "trace."} {
			if strings.HasPrefix(d.Name, p) {
				rep.set(d.Name, 0)
			}
		}
	}
}

// machineIdle reports the fig8 machine ledger and CPU split as idle (0)
// on a service workload: the service windows run no paper-scale matrix
// and are not profiled.
func machineIdle(rep *report) {
	for _, d := range layerDefs() {
		if strings.HasPrefix(d.Name, "machine.") || strings.HasPrefix(d.Name, "cpu_share.") {
			rep.set(d.Name, 0)
		}
	}
}
