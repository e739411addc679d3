package cluster

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hidisc/internal/tracing"
)

// assembleTrace stitches one traced request into a single Perfetto
// JSON file: the coordinator's own spans, the spans each live worker
// collected for the request (fetched over GET /v1/traces), and any
// machine-telemetry documents captured on worker simulate spans,
// spliced below the HTTP span tree. The file lands in cfg.TraceDir as
// trace-<requestID>.json via a temp-file rename, so a reader never
// sees a half-written document.
//
// Runs on its own goroutine after the response is sent; a dead worker
// simply contributes no spans (its jobs appear as requeue/re-route
// spans on the coordinator side instead).
func (co *Coordinator) assembleTrace(requestID string) {
	// Workers publish their request-root spans right after writing the
	// response; give those final End()s a beat to land before fetching.
	time.Sleep(100 * time.Millisecond)

	ctx, cancel := context.WithTimeout(co.JobContext(), 10*time.Second)
	defer cancel()

	type proc struct {
		name  string
		spans []tracing.Span
	}
	procs := []proc{{name: "hidisc-coord"}}
	for _, s := range co.Tracer().Spans(requestID) {
		procs[0].spans = append(procs[0].spans, *s)
	}

	clients := co.fleet.Clients()
	urls := make([]string, 0, len(clients))
	for u := range clients {
		urls = append(urls, u)
	}
	sort.Strings(urls) // deterministic pid assignment
	for _, u := range urls {
		spans, err := clients[u].Traces(ctx, requestID)
		if err != nil {
			co.Logger().Warn("trace fetch failed", "requestId", requestID, "worker", u, "err", err.Error())
			continue
		}
		if len(spans) == 0 {
			continue
		}
		name := "hidisc-serve"
		if s := spans[0].Service; s != "" {
			name = s
		}
		procs = append(procs, proc{name: name + " " + u, spans: spans})
	}

	doc, spliced, skipped, err := buildMergedTrace(requestID, func(yield func(string, []tracing.Span)) {
		for _, p := range procs {
			yield(p.name, p.spans)
		}
	})
	if err != nil {
		co.Logger().Error("trace assembly failed", "requestId", requestID, "err", err.Error())
		return
	}
	if skipped > 0 {
		co.Logger().Warn("machine timelines capped in merged trace",
			"requestId", requestID, "spliced", spliced, "skipped", skipped, "cap", maxMachineSplices)
	}

	path := filepath.Join(co.cfg.TraceDir, "trace-"+sanitizeID(requestID)+".json")
	tmp, err := os.CreateTemp(co.cfg.TraceDir, ".trace-*")
	if err != nil {
		co.Logger().Error("trace write failed", "requestId", requestID, "err", err.Error())
		return
	}
	_, werr := tmp.Write(doc)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		co.Logger().Error("trace write failed", "requestId", requestID, "path", path)
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		co.Logger().Error("trace write failed", "requestId", requestID, "err", err.Error())
		return
	}
	co.Logger().Info("trace assembled", "requestId", requestID, "path", path)
}

// sanitizeID makes a request ID safe as a filename component.
func sanitizeID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, id)
}

// machineDoc is the subset of a telemetry Perfetto document the
// splicer rewrites.
type machineDoc struct {
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	TraceEvents     []map[string]any `json:"traceEvents"`
}

// maxMachineSplices bounds how many captured machine documents one
// merged file carries. A single test-scale document is already tens of
// thousands of events; splicing a whole fig8 matrix's worth would
// produce a file Perfetto cannot load. The cap is never silent: the
// assembler logs spliced vs skipped counts when it bites.
const maxMachineSplices = 4

// buildMergedTrace renders processes of service spans (plus their
// captured machine documents) as one Chrome trace-event JSON document:
//
//   - one Perfetto "process" (pid) per service process, spans as ph:"X"
//     duration events on per-track tids, span identity (traceId /
//     spanId / parentId) carried in args;
//   - one additional process per captured machine document (up to
//     maxMachineSplices), its events re-timed so cycle 0 aligns with
//     the simulate span's start and its process name tagged with the
//     owning span id.
//
// All timestamps are microseconds from the earliest span start, so
// cross-process alignment uses the StartUnixNs wall-clock anchors.
// Returns the document plus how many machine documents were spliced
// and how many the cap skipped.
func buildMergedTrace(requestID string, procs func(yield func(string, []tracing.Span))) ([]byte, int, int, error) {
	// Epoch: earliest span start across every process.
	var epoch int64 = -1
	procs(func(_ string, spans []tracing.Span) {
		for _, s := range spans {
			if epoch < 0 || s.StartUnixNs < epoch {
				epoch = s.StartUnixNs
			}
		}
	})
	if epoch < 0 {
		epoch = 0
	}

	var events []map[string]any
	pid := 0
	nextMachinePid := 1000 // machine processes render after the service ones
	spliced, skipped := 0, 0

	procs(func(name string, spans []tracing.Span) {
		if len(spans) == 0 {
			return
		}
		pid++
		events = append(events, map[string]any{
			"ph": "M", "name": "process_name", "pid": pid,
			"args": map[string]any{"name": name},
		})
		// Stable tid per track within the process; "" renders as the
		// request row.
		tids := map[string]int{}
		tid := func(track string) int {
			if t, ok := tids[track]; ok {
				return t
			}
			t := len(tids) + 1
			tids[track] = t
			label := track
			if label == "" {
				label = "request"
			}
			events = append(events, map[string]any{
				"ph": "M", "name": "thread_name", "pid": pid, "tid": t,
				"args": map[string]any{"name": label},
			})
			return t
		}
		for _, s := range spans {
			ts := (s.StartUnixNs - epoch) / 1000
			dur := s.DurationNs / 1000
			if dur < 1 {
				dur = 1 // sub-µs spans still render
			}
			args := map[string]any{
				"traceId": s.TraceID, "spanId": s.SpanID, "parentId": s.ParentID,
				"requestId": s.RequestID, "service": s.Service,
			}
			for k, v := range s.Attrs {
				args[k] = v
			}
			events = append(events, map[string]any{
				"ph": "X", "cat": "span", "name": s.Name,
				"pid": pid, "tid": tid(s.Track), "ts": ts, "dur": dur,
				"args": args,
			})
			if len(s.Machine) > 0 {
				if spliced >= maxMachineSplices {
					skipped++
					continue
				}
				mev, err := spliceMachine(s, ts, nextMachinePid)
				if err == nil {
					events = append(events, mev...)
					nextMachinePid++
					spliced++
				}
			}
		}
	})

	// Compact encoding: one machine document is tens of thousands of
	// events, so indentation would multiply an already-large file.
	doc, err := json.Marshal(struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}{"ms", events})
	return doc, spliced, skipped, err
}

// spliceMachine rewrites one captured machine-telemetry document for
// the merged file: its pid (unique per document), its timestamps
// (machine cycle N, written as N µs, shifts to the simulate span's
// start so the pipeline timeline sits under the span that ran it), and
// its process name (tagged with the owning span id — what tracecheck
// uses to verify parentage, alongside the span_context metadata event
// the telemetry session recorded).
func spliceMachine(s tracing.Span, spanTs int64, pid int) ([]map[string]any, error) {
	var md machineDoc
	if err := json.Unmarshal(s.Machine, &md); err != nil {
		return nil, err
	}
	out := make([]map[string]any, 0, len(md.TraceEvents))
	for _, ev := range md.TraceEvents {
		ev["pid"] = pid
		if ev["ph"] == "M" {
			if ev["name"] == "process_name" {
				if args, ok := ev["args"].(map[string]any); ok {
					if label, ok := args["name"].(string); ok {
						args["name"] = "machine " + label + " span=" + s.SpanID
					}
				}
			}
		} else if ts, ok := ev["ts"].(float64); ok {
			ev["ts"] = int64(ts) + spanTs
		}
		out = append(out, ev)
	}
	return out, nil
}
