package cpu

import (
	"fmt"
	"math"

	"hidisc/internal/isa"
	"hidisc/internal/mem"
	"hidisc/internal/queue"
)

// CMPConfig parameterises the Cache Management Processor: a
// multithreaded in-order engine with the integer and load/store
// resources of Table 1 (4 ALUs, 2 cache ports). Each CMAS id owns at
// most one thread context, so no more contexts are live than the slicer
// emits slices (eight at most); a trigger forks the context with the
// Access Processor's architectural registers.
type CMPConfig struct {
	IssueWidth        int    // in-order issue width per context per cycle (default 4)
	MaxInstsPerThread uint64 // runaway guard (default 1 << 20)

	// DynamicDistance enables runtime control of the prefetching
	// distance (the paper's Section 6 future work): when a window of
	// recent prefetches mostly hits in the L1 — the slice is running
	// too close behind the demand stream, or re-touching lines — the
	// context's prefetches are offset further ahead, up to
	// MaxDynamicDistance bytes; when they mostly fill new lines the
	// offset decays back toward the compiler's static distance.
	DynamicDistance    bool
	DynamicWindow      int   // prefetches per adaptation step (default 64)
	DynamicStep        int32 // offset adjustment in bytes (default 64)
	MaxDynamicDistance int32 // offset cap in bytes (default 512)
}

// cmpMemPorts is the engine-wide number of cache ports per cycle.
const cmpMemPorts = 2

func (c CMPConfig) withDefaults() CMPConfig {
	if c.IssueWidth == 0 {
		c.IssueWidth = 4
	}
	if c.MaxInstsPerThread == 0 {
		c.MaxInstsPerThread = 1 << 20
	}
	if c.DynamicWindow == 0 {
		c.DynamicWindow = 64
	}
	if c.DynamicStep == 0 {
		c.DynamicStep = 64
	}
	if c.MaxDynamicDistance == 0 {
		c.MaxDynamicDistance = 512
	}
	return c
}

// CMPStats counts Cache Management Processor events.
type CMPStats struct {
	Forks        uint64
	ForksIgnored uint64 // trigger while the context was already running
	Executed     uint64
	Prefetches   uint64
	Killed       uint64 // runaway or shutdown terminations
	Completed    uint64 // contexts that ran to HALT
	PutStalls    int64  // cycles blocked depositing a slip credit

	// Dynamic-distance adaptation events.
	DistanceGrows   uint64
	DistanceShrinks uint64
}

// cmpCtx is one CMAS thread: in-order issue with a register-ready
// scoreboard, so independent instructions flow at full width while
// value-dependent chains (pointer chases) serialise naturally. Loads
// are non-blocking — only a consumer of the loaded value waits.
type cmpCtx struct {
	active  bool
	pc      int
	r       [isa.NumIntRegs + isa.NumFPRegs]uint64 // register bits, as Core.r
	readyAt [isa.NumIntRegs + isa.NumFPRegs]int64
	insts   uint64

	// Dynamic prefetch-distance state (see CMPConfig.DynamicDistance).
	extraDist    int32
	windowCount  int
	windowUseful int
}

// srcReady checks the scoreboard against the instruction's decoded
// source list (see dec: CMAS programs are static, so the sources are
// precomputed once at engine construction).
func (c *cmpCtx) srcReady(now int64, d *dec) bool {
	for i := 0; i < int(d.nsrc); i++ {
		if r := d.src[i]; r.IsArch() && c.readyAt[r] > now {
			return false
		}
	}
	return true
}

func (c *cmpCtx) setReady(r isa.Reg, at int64) {
	if r.IsArch() && r != isa.R0 {
		c.readyAt[r] = at
	}
}

// CMPEngine executes Cache Miss Access Slices. Its memory accesses are
// marked as prefetches in the hierarchy and it never writes program
// state: the only externally visible effects are cache fills and slip-
// control credits.
type CMPEngine struct {
	cfg   CMPConfig
	progs [][]isa.Inst
	decos [][]dec // static decode tables, parallel to progs
	mem   *mem.Memory
	hier  *mem.Hierarchy
	scq   []*queue.Queue
	// ctxs holds the thread contexts by value, indexed by CMAS id: the
	// per-cycle scan walks a flat array instead of chasing per-context
	// pointers, and Fork recycles a slot by overwriting it in place.
	ctxs  []cmpCtx
	stats CMPStats

	// worked / idlePutStalls mirror the Core's idle-cycle protocol (see
	// Core.CycleEv): an idle CMP cycle changes nothing but PutStalls.
	worked        bool
	idlePutStalls int64

	// Idle fast path, mirroring Core: after a proven-idle cycle, ticks
	// before idleUntil with an unchanged queue epoch are exact replays
	// and cost O(1). Fork and Shutdown invalidate it explicitly (they
	// mutate engine state from outside the cycle).
	epoch     *int64
	fastIdle  bool
	idleValid bool
	idleUntil int64
	idleEpoch int64
}

// NewCMP builds the engine. progs[id] is the CMAS program for id, and
// scq[id] its slip-control queue.
func NewCMP(cfg CMPConfig, progs [][]isa.Inst, m *mem.Memory, h *mem.Hierarchy, scq []*queue.Queue) *CMPEngine {
	cfg = cfg.withDefaults()
	decos := make([][]dec, len(progs))
	for i, p := range progs {
		decos[i] = decodeProg(p)
	}
	return &CMPEngine{
		cfg:   cfg,
		progs: progs,
		decos: decos,
		mem:   m,
		hier:  h,
		scq:   scq,
		ctxs:  make([]cmpCtx, len(progs)),
	}
}

// AttachEvents wires the machine-wide queue-mutation epoch into the
// engine and enables its O(1) idle fast path. Slip-control queue
// generations created later by Fork inherit the epoch.
func (e *CMPEngine) AttachEvents(epoch *int64) {
	e.epoch = epoch
	e.fastIdle = epoch != nil
	for _, q := range e.scq {
		if q != nil {
			q.SetEpoch(epoch)
		}
	}
}

// Stats returns the engine's counters.
func (e *CMPEngine) Stats() CMPStats { return e.stats }

// SCQ returns the current slip-control queue generation for a CMAS id
// (forking replaces generations).
func (e *CMPEngine) SCQ(id int) *queue.Queue { return e.scq[id] }

// ActiveContexts returns the number of live CMAS threads.
func (e *CMPEngine) ActiveContexts() int {
	n := 0
	for i := range e.ctxs {
		if e.ctxs[i].active {
			n++
		}
	}
	return n
}

// Fork starts (or restarts) the CMAS thread for id with the given
// architectural context. A trigger that arrives while the thread is
// still running is ignored — the running slice is already ahead. The
// register file is passed by pointer (triggers fire on the dispatch
// hot path) and copied here once the fork is accepted; the caller's
// array is not retained.
func (e *CMPEngine) Fork(id int, r *[isa.NumIntRegs + isa.NumFPRegs]uint64) {
	if id < 0 || id >= len(e.progs) {
		return
	}
	if e.ctxs[id].active {
		e.stats.ForksIgnored++
		return
	}
	e.ctxs[id] = cmpCtx{active: true, r: *r}
	if id < len(e.scq) && e.scq[id] != nil {
		// Retire the previous slip-control queue generation and start a
		// fresh one in the shared slice. Claims still in flight against
		// the old (closed) generation stay trivially satisfied; simply
		// reopening the old queue would strand them: a claim issued
		// beyond the closed tail would become permanently not-ready
		// once new pushes raised the tail past it. Spawn carries the
		// epoch pointer and the consuming core's wake callback over to
		// the new generation.
		old := e.scq[id]
		old.Close()
		e.scq[id] = old.Spawn()
	}
	e.stats.Forks++
	e.idleValid = false
}

// Shutdown kills every context and closes the slip-control queues;
// called when the feeding processor halts.
func (e *CMPEngine) Shutdown() {
	for id := range e.ctxs {
		if c := &e.ctxs[id]; c.active {
			c.active = false
			e.stats.Killed++
			e.closeSCQ(id)
		}
	}
	e.idleValid = false
}

func (e *CMPEngine) closeSCQ(id int) {
	if id < len(e.scq) && e.scq[id] != nil {
		e.scq[id].Close()
	}
}

// Cycle advances every live context by up to IssueWidth in-order
// instructions, sharing the engine's cache ports.
func (e *CMPEngine) Cycle(now int64) error {
	_, err := e.CycleEv(now)
	return err
}

// CycleEv advances the engine one clock and returns its next-event
// cycle under the same contract as Core.CycleEv: now+1 after any
// progress, the earliest scoreboard wakeup when every context is
// blocked on an in-flight fill, and math.MaxInt64 when the only waits
// are on another component (a full slip-control queue).
func (e *CMPEngine) CycleEv(now int64) (int64, error) {
	if e.idleValid {
		if *e.epoch == e.idleEpoch && now < e.idleUntil {
			// Exact replay of the last ticked idle cycle (see Core.CycleEv).
			e.stats.PutStalls += e.idlePutStalls
			return e.idleUntil, nil
		}
		e.idleValid = false
	}
	ps := e.stats.PutStalls
	e.worked = false
	if err := e.cycle(now); err != nil {
		return now + 1, err
	}
	if e.worked {
		return now + 1, nil
	}
	e.idlePutStalls = e.stats.PutStalls - ps
	wake := e.nextWake(now)
	if e.fastIdle {
		e.idleValid = true
		e.idleUntil = wake
		e.idleEpoch = *e.epoch
	}
	return wake, nil
}

// nextWake returns the earliest cycle at which a blocked context's
// sources all become ready. Only called on idle cycles, where every
// active context is stalled either on the scoreboard (local deadline:
// the max of its pending readyAt times) or on a full slip-control
// queue (no local deadline — the consuming core's wakeup drives it).
func (e *CMPEngine) nextWake(now int64) int64 {
	wake := int64(math.MaxInt64)
	for id := range e.ctxs {
		c := &e.ctxs[id]
		if !c.active {
			continue
		}
		prog := e.progs[id]
		if c.pc < 0 || c.pc >= len(prog) {
			return now + 1 // next cycle reports the pc fault
		}
		if prog[c.pc].Op == isa.PUTSCQ {
			continue // waits on the consumer core
		}
		w := int64(0)
		d := &e.decos[id][c.pc]
		for i := 0; i < int(d.nsrc); i++ {
			if r := d.src[i]; r.IsArch() && c.readyAt[r] > w {
				w = c.readyAt[r]
			}
		}
		if w <= now {
			return now + 1 // blocked for a reason we cannot time: tick
		}
		if w < wake {
			wake = w
		}
	}
	return wake
}

// CreditIdle accounts n fast-forwarded idle cycles: the PutStalls
// pattern of the last (idle) cycle repeats n times.
func (e *CMPEngine) CreditIdle(n int64) {
	if n > 0 {
		e.stats.PutStalls += n * e.idlePutStalls
	}
}

func (e *CMPEngine) cycle(now int64) error {
	ports := 0
	for id := range e.ctxs {
		c := &e.ctxs[id]
		if !c.active {
			continue
		}
		for n := 0; n < e.cfg.IssueWidth && c.active; n++ {
			prog := e.progs[id]
			if c.pc < 0 || c.pc >= len(prog) {
				return fmt.Errorf("cmp: CMAS %d pc %d out of range", id, c.pc)
			}
			in := prog[c.pc]
			d := &e.decos[id][c.pc]
			if !c.srcReady(now, d) {
				break
			}
			if d.isMem && ports >= cmpMemPorts {
				break // port contention: retry next cycle
			}
			advanced, usedPort, taken, err := e.step(now, id, c, in, d)
			if err != nil {
				return fmt.Errorf("cmp: CMAS %d pc %d (%v): %w", id, c.pc, in, err)
			}
			if usedPort {
				ports++
			}
			if !advanced {
				break
			}
			e.worked = true
			c.insts++
			e.stats.Executed++
			if c.insts > e.cfg.MaxInstsPerThread {
				c.active = false
				e.stats.Killed++
				e.closeSCQ(id)
			}
			if taken {
				break // fetch break after a taken branch
			}
		}
	}
	return nil
}

// step executes one CMAS instruction in context c, decoded as d;
// sources are known ready. It reports whether the pc advanced (PUTSCQ
// on a full queue retries), whether a cache port was consumed, and
// whether a taken branch ended the issue group.
func (e *CMPEngine) step(now int64, id int, c *cmpCtx, in isa.Inst, d *dec) (advanced, usedPort, taken bool, err error) {
	next := c.pc + 1
	done := now + int64(in.Op.Class().Latency())

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		c.active = false
		e.stats.Completed++
		e.closeSCQ(id)
		c.pc = next
		return true, false, true, nil

	case isa.PUTSCQ:
		q := e.scqFor(int(in.Imm))
		if q == nil {
			return false, false, false, fmt.Errorf("no slip-control queue %d", in.Imm)
		}
		if !q.Push(1) {
			e.stats.PutStalls++
			return false, false, false, nil // full: bounded run-ahead
		}

	case isa.LW, isa.LBU, isa.LFD, isa.PREF:
		addr := uint32(c.get(in.Rs)) + uint32(in.Imm)
		if in.Op == isa.PREF && e.cfg.DynamicDistance {
			addr += uint32(c.extraDist)
		}
		fill := e.hier.Access(now, addr, false, true)
		e.stats.Prefetches++
		usedPort = true
		if in.Op == isa.PREF && e.cfg.DynamicDistance {
			e.adapt(c, fill-now > int64(e.hier.Config().L1D.Latency))
		}
		// Non-blocking: the value is scoreboarded at the fill time, so
		// only consumers of a chased pointer wait.
		if in.Op.IsLoad() {
			c.set(in.Rd, e.mem.Load(addr, d.msize))
			c.setReady(in.Dest(), fill)
		}
		c.pc = next
		return true, true, false, nil

	case isa.SW, isa.SB, isa.SFD:
		return false, false, false, fmt.Errorf("store in CMAS (side-effect violation)")

	case isa.J:
		next = in.Target()
		taken = true

	default:
		// Computational ops and conditional branches: the isa table.
		if d.sem.Fn == nil {
			return false, false, false, fmt.Errorf("op %v not supported on the CMP", in.Op)
		}
		var a, b uint64
		if d.nsrc > 0 {
			a = c.get(d.src[0])
		}
		if d.nsrc > 1 {
			b = c.get(d.src[1])
		} else if d.immB {
			b = uint64(uint32(d.imm))
		}
		if d.sem.Faults(b) {
			// A slice racing ahead of stale data may divide by zero;
			// the result is speculative, so squash the thread rather
			// than the simulation.
			c.active = false
			e.stats.Killed++
			e.closeSCQ(id)
			return true, false, true, nil
		}
		v := d.sem.Fn(a, b)
		if d.isCondBr {
			if v != 0 {
				next = in.Target()
				taken = true
			}
		} else {
			c.set(in.Rd, v)
		}
	}

	if d.dest.IsArch() {
		c.setReady(d.dest, done)
	}
	c.pc = next
	return true, usedPort, taken, nil
}

// adapt runs the dynamic-distance controller: filled is true when the
// prefetch brought in a new line (it missed), false when it hit a line
// already present (too late, or re-touching).
func (e *CMPEngine) adapt(c *cmpCtx, filled bool) {
	c.windowCount++
	if filled {
		c.windowUseful++
	}
	if c.windowCount < e.cfg.DynamicWindow {
		return
	}
	useful := c.windowUseful * 4
	switch {
	case useful < e.cfg.DynamicWindow: // under 25% filling: push further ahead
		if c.extraDist < e.cfg.MaxDynamicDistance {
			c.extraDist += e.cfg.DynamicStep
			e.stats.DistanceGrows++
		}
	case useful > 3*e.cfg.DynamicWindow: // over 75% filling: relax toward static
		if c.extraDist > 0 {
			c.extraDist -= e.cfg.DynamicStep
			e.stats.DistanceShrinks++
		}
	}
	c.windowCount, c.windowUseful = 0, 0
}

func (e *CMPEngine) scqFor(id int) *queue.Queue {
	if id < 0 || id >= len(e.scq) {
		return nil
	}
	return e.scq[id]
}

// get reads r as register bits (see isa.Sem); R0 and a queue read 0.
func (c *cmpCtx) get(r isa.Reg) uint64 {
	if r.IsArch() {
		return c.r[r]
	}
	return 0
}

// set writes register bits v to r; writes to R0 and queues are
// discarded.
func (c *cmpCtx) set(r isa.Reg, v uint64) {
	if r.IsArch() && r != isa.R0 {
		c.r[r] = v
	}
}
