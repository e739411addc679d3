// Package machine assembles the four simulated architectures the paper
// evaluates (Section 5.3) from the cpu, mem and queue building blocks:
//
//   - Superscalar: the 8-issue out-of-order baseline (sim-outorder).
//   - CP+AP: a conventional access/execute decoupled pair connected by
//     the LDQ, SDQ and control queue.
//   - CP+CMP: a superscalar running the single annotated stream with a
//     Cache Management Processor executing triggered CMAS threads
//     (speculative precomputation / DDMT style).
//   - HiDISC: all three processors.
//
// A Machine owns the shared memory image and cache hierarchy, steps
// every processor cycle by cycle, and reports the statistics the
// benchmark harness turns into the paper's tables and figures.
package machine

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"

	"hidisc/internal/cpu"
	"hidisc/internal/isa"
	"hidisc/internal/mem"
	"hidisc/internal/queue"
	"hidisc/internal/simfault"
	"hidisc/internal/slicer"
	"hidisc/internal/telemetry"
)

// Arch selects one of the four evaluated architectures.
type Arch string

// The architecture models of Section 5.3.
const (
	Superscalar Arch = "superscalar"
	CPAP        Arch = "cp+ap"
	CPCMP       Arch = "cp+cmp"
	HiDISC      Arch = "hidisc"
)

// Arches lists all four models in the paper's presentation order.
var Arches = []Arch{Superscalar, CPAP, CPCMP, HiDISC}

// Config parameterises a machine. DefaultConfig reproduces Table 1.
type Config struct {
	Arch Arch
	Hier mem.HierConfig

	Wide cpu.Config // the superscalar / CP+CMP main core
	CP   cpu.Config // computation processor (decoupled modes)
	AP   cpu.Config // access processor (decoupled modes)
	CMP  cpu.CMPConfig

	LDQCap int
	SDQCap int
	CQCap  int
	SCQCap int // slip-control credit depth = CMAS run-ahead bound

	MaxCycles      int64
	WatchdogCycles int64

	// Inject is an optional deterministic fault injector. When nil (the
	// default) the cycle loop pays exactly one pointer check per cycle.
	// An Injector must not be shared between concurrently running
	// machines (its storm PRNG mutates).
	Inject *simfault.Injector

	// NoSkip disables the event-driven fast-forward and ticks every
	// cycle. Results are bit-identical either way (the differential
	// tests pin this); the flag is the escape hatch and the reference
	// semantics the skipper is checked against.
	NoSkip bool

	// Sampler, when non-nil, records interval time series over the run.
	// The machine clocks it like any other component: its next boundary
	// clamps the idle-cycle fast-forward so every interval edge is
	// visited, and sampling at the top of the loop reads exactly the
	// state a no-skip run would have there — Result stays bit-identical
	// (pinned by the telemetry differential tests). Nil costs one
	// pointer check per visited cycle.
	Sampler *telemetry.Sampler

	// Trace, when non-nil, receives every pipeline, queue and memory
	// event: the machine wires it as each core's Tracer (unless the core
	// config already has one), as every queue's Probe, and as the
	// hierarchy's Probe. Pure observer; nil keeps all hooks at a single
	// pointer check (pinned by the AllocsPerRun tests).
	Trace *telemetry.Trace
}

// DefaultConfig returns the paper's Table 1 parameters for the given
// architecture: 8-wide cores, a 64-entry window (16 for the CP),
// 32-entry load/store queues, bimodal 2048 prediction, 4 integer ALUs,
// multiply/divide units, 2 cache ports per memory-facing processor,
// and the default cache hierarchy.
func DefaultConfig(arch Arch) Config {
	return Config{
		Arch: arch,
		Hier: mem.DefaultHierConfig(),
		Wide: cpu.Config{
			Name: "core", WindowSize: 64, HasMem: true,
		},
		CP: cpu.Config{
			Name: "cp", WindowSize: 16, HasMem: false,
		},
		AP: cpu.Config{
			Name: "ap", WindowSize: 64, HasMem: true,
			// The AP has integer and load/store units only; one FP
			// mover handles queue pops of FP values.
			FPALU: 1, FPMulDv: 1,
		},
		CMP:    cpu.CMPConfig{},
		LDQCap: 32,
		SDQCap: 32,
		CQCap:  64,
		SCQCap: 32,

		MaxCycles:      2_000_000_000,
		WatchdogCycles: 100_000,
	}
}

// Result is the outcome of one simulation.
type Result struct {
	Arch    Arch
	Cycles  int64
	Output  []string
	MemHash uint64

	Cores map[string]cpu.Stats
	CMP   cpu.CMPStats
	Hier  mem.HierStats

	LDQ, SDQ, CQ queue.Stats
}

// Committed returns the total committed instructions across cores.
func (r Result) Committed() uint64 {
	var n uint64
	for _, s := range r.Cores {
		n += s.Committed
	}
	return n
}

// Machine is one configured simulation instance.
type Machine struct {
	cfg    Config
	bundle *slicer.Bundle

	mem  *mem.Memory
	hier *mem.Hierarchy

	cores []*cpu.Core
	cmp   *cpu.CMPEngine

	ldq, sdq, cq *queue.Queue
	scq          []*queue.Queue

	queues map[string]*queue.Queue // by name, for fault injection

	// sampleQueues lists the architectural queues the sampler records,
	// in timeline column order (fixed at New).
	sampleQueues []*queue.Queue

	skipped int64 // cycles fast-forwarded instead of ticked

	// epoch counts externally visible mutations of every architectural
	// queue; the cores' idle fast paths snapshot it to prove "nothing I
	// could be waiting on has changed" in O(1). Attached only when the
	// skipper is enabled, so NoSkip runs the untouched reference loop.
	epoch int64
}

// New builds a machine running the bundle under the configuration.
func New(b *slicer.Bundle, cfg Config) (*Machine, error) {
	h, err := mem.NewHierarchy(cfg.Hier)
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, bundle: b, hier: h, mem: mem.NewMemory()}
	m.mem.LoadSegment(isa.DataBase, b.Seq.Data)
	m.queues = map[string]*queue.Queue{}

	// wireStorm attaches the injector's mispredict-storm hook to a core
	// configuration when a storm targets that core; untargeted cores keep
	// a nil hook and pay one pointer check per fetched branch.
	wireStorm := func(cc *cpu.Config) {
		if inj := cfg.Inject; inj != nil && inj.HasStorm(cc.Name) {
			name := cc.Name
			cc.ForceMispredict = func(now int64) bool { return inj.StormActive(name, now) }
		}
	}

	// wireTrace points a core at the machine-wide trace sink. A tracer
	// already present in the configuration (hidisc-sim's -trace-cycles
	// text trace) wins — the two are alternative views of one stream.
	wireTrace := func(cc *cpu.Config) {
		if cfg.Trace != nil && cc.Tracer == nil {
			cc.Tracer = cfg.Trace
		}
	}

	// Slip-control queues: one per CMAS. Architectures without a CMP
	// create them closed, so GETSCQ instructions in a CMAS-annotated
	// bundle complete immediately.
	hasCMP := cfg.Arch == CPCMP || cfg.Arch == HiDISC
	m.scq = make([]*queue.Queue, len(b.CMAS))
	progs := make([][]isa.Inst, len(b.CMAS))
	for i, c := range b.CMAS {
		m.scq[i] = queue.New(fmt.Sprintf("scq%d", i), cfg.SCQCap)
		m.queues[m.scq[i].Name()] = m.scq[i]
		if !hasCMP {
			m.scq[i].Close()
		}
		progs[i] = c.Insts
	}

	switch cfg.Arch {
	case Superscalar, CPCMP:
		wc := cfg.Wide
		wc.HasMem = true
		wc.EnableTriggers = cfg.Arch == CPCMP
		if err := wc.Validate(); err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		wireStorm(&wc)
		wireTrace(&wc)
		core := cpu.New(wc, b.Seq, m.mem, m.hier, cpu.QueueSet{SCQ: m.scq})
		m.cores = append(m.cores, core)
		if cfg.Arch == CPCMP {
			m.cmp = cpu.NewCMP(cfg.CMP, progs, m.mem, m.hier, m.scq)
			core.OnTrigger = m.cmp.Fork
		}

	case CPAP, HiDISC:
		for _, cc := range []cpu.Config{cfg.CP, cfg.AP} {
			if err := cc.Validate(); err != nil {
				return nil, fmt.Errorf("machine: %w", err)
			}
		}
		m.ldq = queue.New("ldq", cfg.LDQCap)
		m.sdq = queue.New("sdq", cfg.SDQCap)
		m.cq = queue.New("cq", cfg.CQCap)
		m.queues["ldq"], m.queues["sdq"], m.queues["cq"] = m.ldq, m.sdq, m.cq

		cpc := cfg.CP
		cpc.HasMem = false
		cpc.JCQMap = b.JCQTable()
		wireStorm(&cpc)
		wireTrace(&cpc)
		cpCore := cpu.New(cpc, b.CS, m.mem, m.hier, cpu.QueueSet{
			Pop:  map[isa.Reg]*queue.Queue{isa.RegLDQ: m.ldq, isa.RegCQ: m.cq},
			Push: map[isa.Reg]*queue.Queue{isa.RegSDQ: m.sdq},
		})

		apc := cfg.AP
		apc.HasMem = true
		apc.EnableTriggers = cfg.Arch == HiDISC
		wireStorm(&apc)
		wireTrace(&apc)
		apCore := cpu.New(apc, b.AS, m.mem, m.hier, cpu.QueueSet{
			Pop:  map[isa.Reg]*queue.Queue{isa.RegSDQ: m.sdq},
			Push: map[isa.Reg]*queue.Queue{isa.RegLDQ: m.ldq, isa.RegCQ: m.cq},
			SCQ:  m.scq,
		})
		m.cores = append(m.cores, cpCore, apCore)
		if cfg.Arch == HiDISC {
			m.cmp = cpu.NewCMP(cfg.CMP, progs, m.mem, m.hier, m.scq)
			apCore.OnTrigger = m.cmp.Fork
		}

	default:
		return nil, fmt.Errorf("machine: unknown architecture %q", cfg.Arch)
	}

	if !cfg.NoSkip {
		for _, q := range m.queues {
			q.SetEpoch(&m.epoch)
		}
		for _, c := range m.cores {
			c.AttachEvents(&m.epoch)
		}
		if m.cmp != nil {
			m.cmp.AttachEvents(&m.epoch)
		}
	}
	if cfg.Trace != nil {
		for _, q := range m.queues {
			q.SetProbe(cfg.Trace)
		}
		m.hier.SetProbe(cfg.Trace)
	}
	if m.ldq != nil {
		m.sampleQueues = []*queue.Queue{m.ldq, m.sdq, m.cq}
	}
	if cfg.Sampler != nil {
		var cores, qs []string
		for _, c := range m.cores {
			cores = append(cores, c.Name())
		}
		for _, q := range m.sampleQueues {
			qs = append(qs, q.Name())
		}
		cfg.Sampler.Start(cores, qs)
	}
	return m, nil
}

// Run simulates to completion and returns the result.
func (m *Machine) Run() (Result, error) {
	return m.RunContext(context.Background())
}

// RunContext simulates to completion. It is a fault-containment
// boundary: a panic anywhere in the cycle loop is recovered into an
// *simfault.InvariantFault, the watchdog returns a structured
// *simfault.DeadlockFault, exceeding MaxCycles returns a
// *simfault.CycleLimitFault, and cancelling ctx returns a
// *simfault.TimeoutFault — each carrying a JSON-serializable snapshot
// of the machine at fault time. The context is polled every 4096
// cycles so cancellation costs nothing measurable in steady state.
func (m *Machine) RunContext(ctx context.Context) (res Result, err error) {
	var cycle int64
	defer func() {
		if r := recover(); r != nil {
			res = Result{}
			err = &simfault.InvariantFault{
				Origin:   m.origin(),
				Reason:   fmt.Sprint(r),
				Stack:    string(debug.Stack()),
				Snapshot: m.snapshot(simfault.KindInvariant, cycle),
			}
		}
	}()

	lastProgress := int64(0)
	lastCommitted := uint64(0)
	shutdownDone := false

	allHalted := func() bool {
		for _, c := range m.cores {
			if !c.Halted() {
				return false
			}
		}
		return true
	}

	for !allHalted() {
		if cycle&4095 == 0 && ctx.Err() != nil {
			return Result{}, &simfault.TimeoutFault{
				Origin:   m.origin(),
				Cycle:    cycle,
				Cause:    ctx.Err().Error(),
				Snapshot: m.snapshot(simfault.KindTimeout, cycle),
			}
		}
		if cycle >= m.cfg.MaxCycles {
			return Result{}, &simfault.CycleLimitFault{
				Origin:   m.origin(),
				Limit:    m.cfg.MaxCycles,
				Snapshot: m.snapshot(simfault.KindCycleLimit, cycle),
			}
		}
		// Telemetry observes the state as of the end of cycle-1, before
		// any component ticks this cycle: at this point credited idle
		// spans and ticked cycles have integrated identically, so an
		// instrumented run samples exactly what a no-skip run would.
		if m.cfg.Trace != nil {
			m.cfg.Trace.SetNow(cycle)
		}
		if m.cfg.Sampler != nil && m.cfg.Sampler.Due(cycle) {
			m.recordSample(cycle)
		}
		if m.cfg.Inject != nil {
			m.injectTick(cycle)
		}
		// Tick every component, collecting the earliest cycle at which
		// any of them can act again. A component that made progress
		// reports cycle+1; one blocked purely on another component
		// reports MaxInt64 and is woken by the blocker's own event.
		wake := int64(math.MaxInt64)
		for _, c := range m.cores {
			w, err := c.CycleEv(cycle)
			if err != nil {
				return Result{}, fmt.Errorf("%s: %w", m.origin(), err)
			}
			if w < wake {
				wake = w
			}
		}
		if m.cmp != nil {
			w, err := m.cmp.CycleEv(cycle)
			if err != nil {
				return Result{}, fmt.Errorf("%s: %w", m.origin(), err)
			}
			if w < wake {
				wake = w
			}
			// When the triggering processor halts the prefetcher has
			// nothing left to help; kill surviving contexts. Closing the
			// slip-control queues can unblock a core, so no skipping.
			if !shutdownDone && m.triggerCoreHalted() {
				m.cmp.Shutdown()
				shutdownDone = true
				wake = cycle + 1
			}
		}
		// Safety net: the memory system itself has no autonomous events
		// (every fill time is already carried by a waiting instruction or
		// scoreboard entry), but an in-flight fill bounds any jump.
		if w := m.hier.NextFill(cycle); w < wake {
			wake = w
		}
		m.tickQueues(1)

		var committed uint64
		for _, c := range m.cores {
			committed += c.CommittedCount()
		}
		if committed != lastCommitted {
			lastCommitted = committed
			lastProgress = cycle
		} else if cycle-lastProgress > m.cfg.WatchdogCycles {
			return Result{}, &simfault.DeadlockFault{
				Origin:      m.origin(),
				Cycle:       cycle,
				StallCycles: cycle - lastProgress,
				Queues:      m.queueStates(),
				Snapshot:    m.snapshot(simfault.KindDeadlock, cycle),
			}
		}

		next := cycle + 1
		if !m.cfg.NoSkip && wake > next {
			next = wake
			// Clamp the jump so it never leaps over a cycle where the
			// naive loop would do something a pure replay would not:
			// a context poll, the watchdog trip, the MaxCycles fault,
			// or a scheduled injector perturbation.
			if p := (cycle | 4095) + 1; p < next {
				next = p
			}
			if w := lastProgress + m.cfg.WatchdogCycles + 1; w < next {
				next = w
			}
			if m.cfg.MaxCycles < next {
				next = m.cfg.MaxCycles
			}
			if m.cfg.Inject != nil {
				if e := m.injectorNextEvent(cycle); e < next {
					next = e
				}
			}
			// The sampler is clocked like any component: never leap over
			// an interval boundary it must observe.
			if m.cfg.Sampler != nil {
				if b := m.cfg.Sampler.Boundary(); b < next {
					next = b
				}
			}
			if n := next - cycle - 1; n > 0 {
				// Credit the skipped idle cycles exactly as if ticked.
				for _, c := range m.cores {
					c.CreditIdle(n)
				}
				if m.cmp != nil {
					m.cmp.CreditIdle(n)
				}
				m.tickQueues(n)
				m.skipped += n
			}
		}
		cycle = next
	}

	// Flush the final (possibly partial) interval so the timeline ends
	// at the run's cycle count; a run ending exactly on a boundary adds
	// no extra row (Record drops zero-length intervals).
	if m.cfg.Sampler != nil {
		m.recordSample(cycle)
	}

	res = Result{
		Arch:    m.cfg.Arch,
		Cycles:  cycle,
		MemHash: m.mem.Checksum(),
		Cores:   map[string]cpu.Stats{},
		Hier:    m.hier.Stats(),
	}
	for _, c := range m.cores {
		res.Cores[c.Name()] = c.Stats()
		res.Output = append(res.Output, c.Output()...)
	}
	if m.cmp != nil {
		res.CMP = m.cmp.Stats()
	}
	if m.ldq != nil {
		res.LDQ, res.SDQ, res.CQ = m.ldq.Stats(), m.sdq.Stats(), m.cq.Stats()
	}
	return res, nil
}

// recordSample fills the sampler's scratch row with the machine's
// cumulative counters at a boundary cycle. Everything read here is
// already maintained by the components, so a sample is a handful of
// copies — no per-sample work inside the cores.
func (m *Machine) recordSample(cycle int64) {
	s := m.cfg.Sampler
	row := s.Row()
	row.Cycle = cycle
	for i, c := range m.cores {
		st := c.Stats()
		row.Cores[i] = telemetry.CoreSample{
			Committed: st.Committed,
			QueueWait: st.QueueWaitCycles,
			MemWait:   st.MemWaitCycles,
		}
	}
	for i, q := range m.sampleQueues {
		row.Queues[i] = q.Len()
	}
	hs := m.hier.Stats()
	row.L1DAccesses, row.L1DMisses = hs.L1D.DemandAccesses, hs.L1D.DemandMisses
	row.L2Accesses, row.L2Misses = hs.L2.DemandAccesses, hs.L2.DemandMisses
	row.PrefetchIssued, row.PrefetchUseful = hs.PrefetchIssued, hs.L1D.UsefulPrefetch
	row.MSHR = m.hier.InFlight(cycle)
	s.Record()
}

// triggerCoreHalted reports whether the processor that forks CMAS
// threads has halted (the AP in HiDISC, the main core in CP+CMP).
func (m *Machine) triggerCoreHalted() bool {
	return m.cores[len(m.cores)-1].Halted()
}

// CyclesSkipped returns how many cycles the event-driven fast-forward
// jumped over instead of ticking (0 under Config.NoSkip).
func (m *Machine) CyclesSkipped() int64 { return m.skipped }

// tickQueues integrates architectural-queue occupancy over n cycles.
// Occupancy only changes on cycles where some component works, so
// crediting a whole idle span at the frozen length matches the naive
// per-cycle integral exactly.
func (m *Machine) tickQueues(n int64) {
	if m.ldq != nil {
		m.ldq.Tick(n)
		m.sdq.Tick(n)
		m.cq.Tick(n)
	}
}

// injectorNextEvent returns the earliest cycle after now at which the
// injector does something: a point action's At, or any cycle inside a
// stall-cache-port window (which perturbs the target core every cycle
// it covers, so the machine must tick through it).
func (m *Machine) injectorNextEvent(now int64) int64 {
	next := int64(math.MaxInt64)
	for i := range m.cfg.Inject.Actions {
		a := &m.cfg.Inject.Actions[i]
		w := int64(math.MaxInt64)
		switch a.Kind {
		case simfault.ActCloseQueue, simfault.ActDropCredit, simfault.ActPanic:
			if a.At > now {
				w = a.At
			}
		case simfault.ActStallCachePort:
			if a.Active(now + 1) {
				w = now + 1
			} else if a.At > now {
				w = a.At
			}
		case simfault.ActMispredictStorm:
			// Storm draws happen only on cycles where the target core
			// fetches a conditional branch — worked cycles, which are
			// never skipped — so the window needs no clamp.
		}
		if w < next {
			next = w
		}
	}
	return next
}

func (m *Machine) origin() string { return fmt.Sprintf("machine %s", m.cfg.Arch) }

// queueStates captures every architectural queue for fault forensics.
func (m *Machine) queueStates() []simfault.QueueState {
	var qs []simfault.QueueState
	if m.ldq != nil {
		qs = append(qs, m.ldq.State(), m.sdq.State(), m.cq.State())
	}
	for _, q := range m.scq {
		qs = append(qs, q.State())
	}
	return qs
}

// snapshot captures the machine state at fault time. It is called from
// paths where the machine may already be corrupt (recovered panics), so
// it guards itself: a panic while snapshotting yields whatever partial
// snapshot was built instead of killing the containment boundary.
func (m *Machine) snapshot(kind simfault.Kind, cycle int64) (snap *simfault.Snapshot) {
	snap = &simfault.Snapshot{Kind: kind, Arch: string(m.cfg.Arch), Cycle: cycle, CyclesSkipped: m.skipped}
	defer func() { _ = recover() }()
	for _, c := range m.cores {
		snap.Cores = append(snap.Cores, c.FaultState())
	}
	snap.Queues = m.queueStates()
	hs := m.hier.FaultState(cycle)
	snap.Hier = &hs
	if m.cmp != nil {
		snap.CMPActiveContexts = m.cmp.ActiveContexts()
	}
	return snap
}

// injectTick applies the injector's scheduled perturbations for this
// cycle. Point actions (close-queue, drop-credit, panic) fire exactly
// at their At cycle; windowed actions (stall-cache-port) apply every
// cycle the window covers.
func (m *Machine) injectTick(cycle int64) {
	for i := range m.cfg.Inject.Actions {
		a := &m.cfg.Inject.Actions[i]
		switch a.Kind {
		case simfault.ActCloseQueue:
			if cycle == a.At {
				if q := m.queues[a.Queue]; q != nil {
					q.Close()
				}
			}
		case simfault.ActDropCredit:
			if cycle == a.At {
				if q := m.queues[a.Queue]; q != nil {
					n := a.Count
					if n <= 0 {
						n = 1
					}
					for j := 0; j < n; j++ {
						if _, ok := q.PopCommitted(); !ok {
							break
						}
					}
				}
			}
		case simfault.ActStallCachePort:
			if a.Active(cycle) {
				if c := m.coreByName(a.Core); c != nil {
					c.StallMemPorts(cycle + 1)
				}
			}
		case simfault.ActPanic:
			if cycle == a.At {
				panic(fmt.Sprintf("simfault: injected panic at cycle %d", cycle))
			}
		}
	}
}

func (m *Machine) coreByName(name string) *cpu.Core {
	for _, c := range m.cores {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// RunArch is a convenience: build and run one architecture over a
// bundle with Table 1 defaults and the given hierarchy override.
func RunArch(b *slicer.Bundle, arch Arch, hier mem.HierConfig) (Result, error) {
	return RunArchContext(context.Background(), b, arch, hier)
}

// RunArchContext is RunArch under an explicit context.
func RunArchContext(ctx context.Context, b *slicer.Bundle, arch Arch, hier mem.HierConfig) (Result, error) {
	cfg := DefaultConfig(arch)
	cfg.Hier = hier
	m, err := New(b, cfg)
	if err != nil {
		return Result{}, err
	}
	return m.RunContext(ctx)
}
