package cpu

import (
	"fmt"
	"io"

	"hidisc/internal/isa"
)

// Stage identifies a pipeline event kind for tracing.
type Stage string

// Pipeline event kinds.
const (
	StageFetch    Stage = "fetch"
	StageDispatch Stage = "dispatch"
	StageIssue    Stage = "issue"
	StageComplete Stage = "complete"
	StageCommit   Stage = "commit"
	StageSquash   Stage = "squash"
	StageRedirect Stage = "redirect"
	StagePush     Stage = "push"
)

// TraceEvent is one pipeline event delivered to a Tracer.
type TraceEvent struct {
	Cycle int64
	Core  string
	Stage Stage
	PC    int
	Seq   int64
	Inst  isa.Inst
	// Win identifies the window slot+generation the event's entry
	// occupies (NoHandle for events without a window entry), so trace
	// consumers can correlate the lifetime of one window residency
	// across stages even when seq counters or PCs repeat.
	Win  Handle
	Note string
}

// Tracer receives pipeline events; attach one via Config.Tracer to
// watch a core cycle by cycle. Implementations must be fast — they run
// inside the simulation loop.
type Tracer interface {
	Event(TraceEvent)
}

// TextTracer renders events as aligned text lines, optionally limited
// to the first ToCycle cycles.
type TextTracer struct {
	W       io.Writer
	ToCycle int64 // 0 = unbounded
}

// Event writes one formatted line.
func (t *TextTracer) Event(ev TraceEvent) {
	if t.ToCycle > 0 && ev.Cycle > t.ToCycle {
		return
	}
	note := ev.Note
	if note != "" {
		note = "  ; " + note
	}
	fmt.Fprintf(t.W, "%10d %-4s %-8s #%-6d pc=%-5d %s%s\n",
		ev.Cycle, ev.Core, ev.Stage, ev.Seq, ev.PC, ev.Inst, note)
}

// CollectTracer buffers events for tests.
type CollectTracer struct {
	Events []TraceEvent
}

// Event appends the event.
func (c *CollectTracer) Event(ev TraceEvent) { c.Events = append(c.Events, ev) }

func (c *Core) trace(now int64, stage Stage, e *entry, note string) {
	if c.cfg.Tracer == nil {
		return
	}
	ev := TraceEvent{Cycle: now, Core: c.cfg.Name, Stage: stage, Win: NoHandle, Note: note}
	if e != nil {
		ev.PC, ev.Seq = e.pc, e.seq
		ev.Inst = c.prog.Insts[e.pc]
		ev.Win = e.handle()
	}
	c.cfg.Tracer.Event(ev)
}
