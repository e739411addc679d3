// Package cpu implements the cycle-level processor models: an
// out-of-order superscalar core in the style of SimpleScalar's
// sim-outorder (register-update-unit window, load/store queue,
// functional unit pools, bimodal branch prediction) extended with the
// HiDISC architectural-queue operands, plus the simple multithreaded
// in-order engine used as the Cache Management Processor.
package cpu

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"hidisc/internal/bpred"
	"hidisc/internal/isa"
	"hidisc/internal/mem"
	"hidisc/internal/queue"
	"hidisc/internal/simfault"
)

// Config parameterises one out-of-order core.
type Config struct {
	Name        string
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	WindowSize  int // RUU entries
	LSQSize     int
	IFQSize     int

	IntALU   int // integer ALUs (also execute branches and queue ops)
	IntMulDv int // integer multiply/divide units
	FPALU    int // FP adders (also compares, converts, moves)
	FPMulDv  int // FP multiply/divide units
	MemPorts int // cache ports (loads at issue, stores at commit)

	// HasMem permits load/store execution; the Computation Processor
	// of the decoupled configurations has no memory access.
	HasMem bool
	// EnableTriggers forks CMAS threads at trigger annotations.
	EnableTriggers bool
	// BlockingSCQ makes GETSCQ wait for a slip-control credit (the
	// paper's literal Figure 3 handshake). The default is non-blocking
	// consumption: the CMP's run-ahead stays bounded by the SCQ
	// capacity, but a prefetcher slower than the Access Processor can
	// never throttle it.
	BlockingSCQ bool
	// JCQMap translates JCQ tokens (producer coordinates) into this
	// core's program coordinates; identity when nil.
	JCQMap []int

	// Tracer, when non-nil, receives pipeline events (see trace.go).
	Tracer Tracer

	// ForceMispredict, when non-nil, is asked at each conditional-
	// branch fetch whether to invert the prediction; wired by the
	// fault injector's mispredict storms. Nil costs one pointer check
	// per fetched branch (pinned by the AllocsPerRun tests).
	ForceMispredict func(now int64) bool
}

// The Table 1 branch predictor: a bimodal table of 2048 2-bit counters,
// plus a branch target buffer and return-address stack for indirect
// jumps.
const (
	predictorSize = 2048
	btbSize       = 64
	rasDepth      = 8
)

func (c Config) withDefaults() Config {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def(&c.FetchWidth, 8)
	def(&c.IssueWidth, 8)
	def(&c.CommitWidth, 8)
	def(&c.WindowSize, 64)
	def(&c.LSQSize, 32)
	def(&c.IFQSize, 16)
	def(&c.IntALU, 4)
	def(&c.IntMulDv, 1)
	def(&c.FPALU, 4)
	def(&c.FPMulDv, 1)
	def(&c.MemPorts, 2)
	return c
}

// MaxWindowSize bounds Config.WindowSize: the window ring must fit one
// uint64 of slot bits, so every per-cycle scan (issue, writeback, the
// idle wakeup and the oldest-branch probe) is a bitmap walk. Table 1's
// largest window is 64 entries.
const MaxWindowSize = 64

// maxQueueSize bounds the LSQ and IFQ: their ring positions must fit
// the 16-bit slot field of a Handle with NoHandle's slot left free.
const maxQueueSize = 1 << 15

// Validate checks the configuration after defaults are applied.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.WindowSize < 1 || c.WindowSize > MaxWindowSize {
		return fmt.Errorf("cpu %s: WindowSize %d outside 1..%d", c.Name, c.WindowSize, MaxWindowSize)
	}
	if c.LSQSize < 1 || c.LSQSize > maxQueueSize {
		return fmt.Errorf("cpu %s: LSQSize %d outside 1..%d", c.Name, c.LSQSize, maxQueueSize)
	}
	if c.IFQSize < 1 || c.IFQSize > maxQueueSize {
		return fmt.Errorf("cpu %s: IFQSize %d outside 1..%d", c.Name, c.IFQSize, maxQueueSize)
	}
	return nil
}

// QueueSet wires a core to the architectural queues it may consume
// (Pop) and produce (Push), and to the per-CMAS slip-control queues.
type QueueSet struct {
	Pop  map[isa.Reg]*queue.Queue
	Push map[isa.Reg]*queue.Queue
	SCQ  []*queue.Queue
}

// Stats counts core events.
type Stats struct {
	Cycles            int64
	Committed         uint64
	CommittedLoads    uint64
	CommittedStores   uint64
	CommittedBranch   uint64
	Mispredicts       uint64
	FetchStalls       int64
	DispatchStalls    int64 // window or LSQ full
	QueueWaitCycles   int64 // oldest entry waiting on an architectural queue
	MemWaitCycles     int64 // oldest entry waiting on a cache access
	CommitQueueStall  int64 // commit blocked by a full output queue
	Squashed          uint64
	DispatchRedirects uint64 // BCQ/JCQ resolved at dispatch against the fetch direction
}

// Handle names a window entry without holding a pointer to it: the low
// 16 bits are the entry's ring slot, the high 16 its generation at the
// time the handle was taken. The slot's generation bumps whenever its
// occupant departs the window (commit or squash), so a stale handle —
// one taken on an occupant that has since departed — fails the
// generation compare on dereference and reads as "gone" instead of
// aliasing the slot's next occupant. Every cross-structure reference
// (rename table, LSQ order, producer→consumer waiter lists, the
// push-release list, parked queue claims) is a Handle, which is what
// lets the window itself be a flat []entry the per-cycle scans walk
// without pointer chasing.
type Handle uint32

// NoHandle is the nil Handle; its slot field (0xffff) is reserved —
// Validate rejects structure sizes that could allocate it.
const NoHandle Handle = ^Handle(0)

// String renders a handle as slot.generation for trace consumers.
func (h Handle) String() string {
	if h == NoHandle {
		return "none"
	}
	return fmt.Sprintf("w%d.g%d", uint32(h)&0xffff, uint32(h)>>16)
}

// at dereferences a handle: the live entry it names, or nil if that
// entry has departed the window. A matching generation proves liveness
// by itself — the generation bumps at departure, so no range check
// against head/tail is needed.
func (c *Core) at(h Handle) *entry {
	slot := uint32(h) & 0xffff
	if slot > c.winMask {
		return nil
	}
	e := &c.win[slot]
	if e.gen != uint16(uint32(h)>>16) {
		return nil
	}
	return e
}

type srcOperand struct {
	val      uint64
	qseq     int64
	qref     *queue.Queue
	producer Handle
	reg      isa.Reg
	ready    bool
}

// entry is one window slot, held by value in the core's ring. Fields
// are ordered so the scalars the per-cycle scans touch (issue,
// writeback, commit) share the leading cache lines; the large srcsBuf
// array sits at the end. slot is fixed at construction; gen only ever
// increments (at window departure).
type entry struct {
	seq        int64
	completeAt int64
	result     uint64

	pc         int
	predNext   int
	actualNext int

	// memory
	addr uint32

	slot, gen uint16

	dest isa.Reg

	// nsrc counts operands in srcsBuf (including GETSCQ's hidden
	// slip-control credit); nready counts those whose ready flag is
	// set, so the issue scan skips the per-source loop for the common
	// entry whose operands have all arrived.
	nsrc   uint8
	nready int8

	issued    bool
	completed bool

	// control
	isCtl bool
	taken bool

	isLoad, isStore bool
	addrReady       bool

	// pushed: queue pushes already released (at completion or commit)
	pushed bool

	execErr error

	srcsBuf [isa.MaxSources + 1]srcOperand // +1 for GETSCQ's hidden credit
}

// handle returns the entry's current identity.
func (e *entry) handle() Handle { return Handle(uint32(e.gen)<<16 | uint32(e.slot)) }

// fetched carries a fetch-queue slot; the instruction itself is
// re-read from the immutable program at dispatch (prog.Insts[pc]), so
// the IFQ never copies Inst structs around.
type fetched struct {
	pc       int
	predNext int
}

type fuPool struct {
	busyUntil []int64
	// freeAt caches the earliest unit-free time observed at the last
	// failed acquire. busyUntil entries only ever grow (acquire and
	// StallMemPorts both extend them), so any attempt before freeAt
	// must fail again — repeated failed acquires from a saturated
	// issue scan become one compare instead of a pool scan. A stale-
	// low freeAt is harmless: it only costs the scan it skipped.
	freeAt int64
}

func (f *fuPool) acquire(now int64, occupy int64) bool {
	if now < f.freeAt {
		return false
	}
	for i := range f.busyUntil {
		if f.busyUntil[i] <= now {
			f.busyUntil[i] = now + occupy
			return true
		}
	}
	f.freeAt = f.nextFree()
	return false
}

// nextFree returns the earliest cycle a unit comes free; only
// meaningful right after a failed acquire (every unit busy past now).
func (f *fuPool) nextFree() int64 {
	t := int64(math.MaxInt64)
	for _, b := range f.busyUntil {
		if b < t {
			t = b
		}
	}
	return t
}

// dec caches every Op-derived predicate the per-cycle stages need for
// one static instruction. The program never changes after construction,
// so decoding each dispatched instance again (SourceList, IsMem, Dest,
// functional-unit class) was pure per-cycle overhead — on memory-bound
// runs it dominated the dispatch stage's profile.
type dec struct {
	src     [isa.MaxSources]isa.Reg
	nsrc    uint8
	pool    int8  // functional-unit pool id (poolNone..poolMem)
	ctlKind uint8 // fetch steering kind (ctlNone..ctlCond)
	commit  uint8 // commit side effect (ckNone..ckHalt)
	isMem   bool
	isCtl   bool
	isLoad  bool
	isStore bool
	hasPush bool // pushes to any architectural queue at commit/release
	hasQSrc bool // claims a queue operand (incl. GETSCQ's hidden credit)

	// Commit/dispatch predicates that were re-derived from the Op and
	// annotation bits on every committed instance.
	updatesPred bool // conditional branch trained into the predictor
	updatesBTB  bool // indirect jump recorded in the BTB
	isGetSCQ    bool
	consumeSCQ  bool // AnnConsumeSCQ (or GETSCQ in non-blocking mode)
	trigger     bool // AnnTrigger
	noExec      bool // NOP/HALT: completed at dispatch
	isCQCtl     bool // BCQ/JCQ: control-queue steered

	// Push-plan and execute predicates, so the hot paths never touch
	// the Inst struct at all.
	tapLDQ   bool // AnnTapLDQ
	tapSDQ   bool // AnnTapSDQ
	pushCQ   bool // AnnPushCQ
	isPutSCQ bool
	isCondBr bool
	immB     bool // sem's b operand is the immediate

	// sem is the op's isa semantics entry; its Fn is nil for the ops
	// the executors handle themselves (memory, queue, jumps).
	sem isa.Sem

	scqID  int32 // slip-control queue id for consumeSCQ/isGetSCQ
	cmasID int32 // trigger target (AnnTrigger)
	imm    int32

	op     isa.Op
	dest   isa.Reg
	target int    // direct-control target
	msize  uint32 // memory access width in bytes
	lat    int64  // result latency in cycles
	occupy int64  // pool reservation in cycles (latency if unpipelined)
}

// Functional-unit pool ids in dec.pool.
const (
	poolNone = int8(iota)
	poolIntALU
	poolIntMulDv
	poolFPALU
	poolFPMulDv
	poolMem
)

// Fetch steering kinds in dec.ctlKind.
const (
	ctlNone     = uint8(iota)
	ctlHalt     // stop fetching
	ctlJ        // unconditional direct jump
	ctlJAL      // direct call: push return address
	ctlCQBranch // BCQ: steer by a peeked control-queue token
	ctlCQJump   // JCQ: steer by a peeked control-queue token
	ctlJR       // indirect jump: BTB
	ctlJRRA     // return: RAS, then BTB
	ctlJALR     // indirect call: BTB, push return address
	ctlCond     // conditional branch: predictor
)

// Commit side effects in dec.commit.
const (
	ckNone = uint8(iota)
	ckOut
	ckOutf
	ckHalt
)

// decodeProg builds the static decode table for a program: every
// Op- or annotation-derived fact the per-cycle stages need, resolved
// once, so fetch, dispatch and commit never re-derive predicates per
// dispatched instance.
func decodeProg(insts []isa.Inst) []dec {
	t := make([]dec, len(insts))
	for i, in := range insts {
		d := &t[i]
		src, n := in.SourceList()
		d.src = src
		d.nsrc = uint8(n)
		d.op = in.Op
		d.imm = in.Imm
		d.isMem = in.Op.IsMem()
		d.isCtl = in.Op.IsControl()
		d.isLoad = in.Op.IsLoad() || in.Op == isa.PREF
		d.isStore = in.Op.IsStore()
		d.dest = in.Dest()
		d.msize = uint32(memSize(in.Op))
		d.tapLDQ = in.Ann.Has(isa.AnnTapLDQ)
		d.tapSDQ = in.Ann.Has(isa.AnnTapSDQ)
		d.pushCQ = in.Ann.Has(isa.AnnPushCQ)
		d.isPutSCQ = in.Op == isa.PUTSCQ
		d.isCondBr = in.Op.IsCondBranch()
		d.sem, _ = in.Op.Semantics()
		d.immB = in.Op.ImmOperand()
		d.hasPush = d.dest.IsQueue() || d.isPutSCQ || d.tapLDQ || d.tapSDQ || d.pushCQ
		d.hasQSrc = in.Op == isa.GETSCQ
		for si := 0; si < n; si++ {
			if src[si].IsQueue() {
				d.hasQSrc = true
			}
		}
		d.updatesPred = d.isCondBr && in.Op != isa.BCQ
		d.updatesBTB = in.Op.IsIndirect()
		d.isGetSCQ = in.Op == isa.GETSCQ
		d.consumeSCQ = in.Ann.Has(isa.AnnConsumeSCQ)
		d.trigger = in.Ann.Has(isa.AnnTrigger)
		if d.trigger {
			d.cmasID = int32(in.Ann.CMASID())
		}
		d.noExec = in.Op == isa.NOP || in.Op == isa.HALT
		d.isCQCtl = in.Op == isa.BCQ || in.Op == isa.JCQ
		if d.isGetSCQ {
			d.scqID = in.Imm
		} else if d.consumeSCQ {
			d.scqID = int32(in.Ann.CMASID())
		}
		if in.Op.IsDirectControl() {
			d.target = in.Target()
		}
		switch in.Op {
		case isa.HALT:
			d.ctlKind = ctlHalt
		case isa.J:
			d.ctlKind = ctlJ
		case isa.JAL:
			d.ctlKind = ctlJAL
		case isa.BCQ:
			d.ctlKind = ctlCQBranch
		case isa.JCQ:
			d.ctlKind = ctlCQJump
		case isa.JR:
			d.ctlKind = ctlJR
			if in.Rs == isa.RA {
				d.ctlKind = ctlJRRA
			}
		case isa.JALR:
			d.ctlKind = ctlJALR
		default:
			if in.Op.IsCondBranch() {
				d.ctlKind = ctlCond
			}
		}
		switch in.Op {
		case isa.OUT:
			d.commit = ckOut
		case isa.OUTF:
			d.commit = ckOutf
		case isa.HALT:
			d.commit = ckHalt
		}
		cl := in.Op.Class()
		d.lat = int64(cl.Latency())
		d.occupy = 1
		if !cl.Pipelined() {
			d.occupy = d.lat
		}
		switch cl {
		case isa.ClassIntALU, isa.ClassBranch, isa.ClassQueue:
			d.pool = poolIntALU
		case isa.ClassIntMul, isa.ClassIntDiv:
			d.pool = poolIntMulDv
		case isa.ClassFPAdd:
			d.pool = poolFPALU
		case isa.ClassFPMul, isa.ClassFPDiv:
			d.pool = poolFPMulDv
		case isa.ClassLoad, isa.ClassStore:
			d.pool = poolMem
		}
	}
	return t
}

// pushRef is one push-release list slot: the producing entry by handle
// plus its dispatch seq, which disambiguates a wrapped generation (the
// handle alone repeats every 65536 departures of a slot; the seq never
// repeats).
type pushRef struct {
	seq int64
	h   Handle
}

// Core is one out-of-order processor.
type Core struct {
	cfg  Config
	prog *isa.Program
	mem  *mem.Memory
	hier *mem.Hierarchy
	qs   QueueSet

	// deco is the static decode table, indexed by instruction pc (fetch
	// only enqueues in-range pcs, so every in-flight entry has one).
	deco []dec

	// popQ/pushQ mirror qs.Pop and qs.Push as dense arrays indexed by
	// register number: the dispatch and push paths hit them for every
	// queue operand, where a map lookup (hash + bucket walk) is
	// measurable at simulation scale.
	popQ, pushQ [int(isa.RegSCQ) + 1]*queue.Queue

	// minComplete is a lower bound on the earliest completeAt of any
	// issued-but-incomplete entry; writeback skips its window scan
	// entirely while now is below it. Pending completion times never
	// change once set, so the bound only goes stale in the safe
	// direction (too low → a wasted scan, never a missed completion).
	minComplete int64

	intR [isa.NumIntRegs]uint32
	fpR  [isa.NumFPRegs]float64

	pc           int
	fetchStopped bool
	fetchCQPeek  int // control-queue tokens consumed by instructions still in the IFQ
	nextSeq      int64

	// The window is a power-of-two ring of at most MaxWindowSize
	// value-typed entries; winHead and winTail are absolute position
	// counters (position & winMask is the slot). The backing array never
	// moves after New, so *entry pointers taken within a cycle stay
	// valid; only Handles may be stored across cycles. due and waiters
	// are per-slot side arrays: due mirrors completeAt (so the writeback
	// and wakeup scans read one word, not a cold 200-byte entry), and
	// waiters lists the in-window consumers parked on the slot's
	// occupant as an operand producer.
	win     []entry
	winMask uint32
	winHead int64
	winTail int64
	due     []int64
	waiters [][]Handle

	// lsqRing holds the window handles of in-flight memory operations
	// in program order (same absolute-position ring discipline).
	lsqRing []Handle
	lsqMask uint32
	lsqHead int64
	lsqTail int64

	// ifq is the fetch-queue ring.
	ifq     []fetched
	ifqMask uint32
	ifqHead int64
	ifqTail int64

	// Slot bitmaps, one uint64 since the ring has at most 64 slots
	// (bmSize of them; bmMask covers them). Bit s describes the occupant
	// of slot s:
	//   readyBm    — unissued entries the issue scan could advance. An
	//                entry proven operand-blocked drops out and is put
	//                back by the wake that delivers the operand
	//                (wakeWaiters or queueWake); entries blocked on
	//                anything else — LSQ disambiguation, a busy
	//                functional unit or cache port — stay in and are
	//                re-visited every scan.
	//   inflightBm — issued but not completed (the writeback scan).
	//   ctlBm      — control entries not yet resolved (the
	//                releasePushes oldest-unresolved-branch probe).
	// The scans rotate a bitmap so bit 0 is the window head and iterate
	// set bits, which preserves program order — completion order is
	// architecturally visible (the oldest mispredicted branch must
	// squash first).
	bmSize     uint32
	bmMask     uint64
	readyBm    uint64
	inflightBm uint64
	ctlBm      uint64

	// Issue-scan gate. A cycle's issue scan can only make progress if
	// something changed since the last one: a register operand arrived
	// (writeback completion), a queue mutated anywhere (machine epoch),
	// an entry was dispatched or squashed, a store left the LSQ at
	// commit, or a busy functional unit / cache port came free (the
	// scan records the earliest such time in issueRetryAt when an
	// acquire fails). issueClean is true only when the previous scan
	// issued nothing, so a skipped scan is provably a no-op — it would
	// have mutated nothing and issued nothing. Gating requires the
	// machine epoch (fastIdle); the NoSkip reference loop always scans.
	issueClean   bool
	issueEpoch   int64
	issueRetryAt int64

	// rename maps an architectural register to its youngest in-window
	// producer: a dense array indexed by register number (int and FP
	// registers share the 0..63 space). Invariant: it holds only live
	// handles — commit clears its own entry, squash rebuilds the table
	// from survivors — so dispatch dereferences without a staleness
	// check.
	rename [isa.NumIntRegs + isa.NumFPRegs]Handle

	// pushScratch backs pushPlan's result between calls.
	pushScratch []pushOp

	// pushList holds queue-producing entries in program order; pushes
	// release as soon as an entry has completed non-speculatively, so
	// the consumer stream is fed without waiting for the producer's
	// commit (which may itself be waiting on the consumer).
	pushList []pushRef
	pushHead int

	intALU, intMulDv, fpALU, fpMulDv, memPorts fuPool

	// pools maps dec.pool ids to the pools above (nil for poolNone), so
	// the issue path indexes instead of branching through a switch.
	pools [poolMem + 1]*fuPool

	pred *bpred.Bimodal
	btb  *bpred.BTB
	ras  *bpred.RAS

	halted bool
	output []string
	stats  Stats

	// worked marks that the current Cycle changed machine state beyond
	// the per-cycle stall counters; idleDelta records which of those
	// counters the cycle incremented. Together they let CycleEv prove a
	// cycle idle (the next cycle with unchanged inputs replays it
	// exactly) and let CreditIdle account fast-forwarded cycles
	// bit-identically to ticked ones.
	worked    bool
	idleDelta idleStalls

	// Per-core idle fast path. After a proven-idle cycle the core
	// records its local wakeup (idleUntil) and a snapshot of the
	// machine-wide queue epoch (idleEpoch). While now < idleUntil and
	// the epoch is unchanged, every tick is an exact replay of that
	// idle cycle, so CycleEv applies idleDelta in O(1) instead of
	// re-running the pipeline scans. This is what makes a core that is
	// blocked behind the prefetch engine (or the other core) cheap even
	// though the machine clock keeps ticking for the busy component.
	// Enabled by AttachEvents; the no-skip reference path never sets it.
	epoch     *int64
	fastIdle  bool
	idleValid bool
	idleUntil int64
	idleEpoch int64

	// recentPCs rings the last committed program counters for fault
	// forensics (oldest overwritten first); recentLen counts total
	// commits recorded.
	recentPCs [recentPCDepth]int32
	recentLen uint64

	// OnTrigger, when set, is invoked at dispatch of a trigger-
	// annotated instruction with the CMAS id and the committed
	// architectural register context. The arrays are passed by
	// pointer to keep the dispatch path copy-free; the callee must
	// copy what it keeps and not retain the pointers.
	OnTrigger func(id int, ir *[isa.NumIntRegs]uint32, fr *[isa.NumFPRegs]float64)
}

// pow2at rounds n up to the next power of two (minimum 1).
func pow2at(n int) int {
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}

// New builds a core executing prog against the shared memory image and
// hierarchy. It panics on a configuration Validate rejects.
func New(cfg Config, prog *isa.Program, m *mem.Memory, h *mem.Hierarchy, qs QueueSet) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	mk := func(n int) fuPool { return fuPool{busyUntil: make([]int64, n)} }
	c := &Core{
		cfg:      cfg,
		prog:     prog,
		mem:      m,
		hier:     h,
		qs:       qs,
		pc:       prog.Entry,
		intALU:   mk(cfg.IntALU),
		intMulDv: mk(cfg.IntMulDv),
		fpALU:    mk(cfg.FPALU),
		fpMulDv:  mk(cfg.FPMulDv),
		memPorts: mk(cfg.MemPorts),
		pred:     bpred.NewBimodal(predictorSize),
		btb:      bpred.NewBTB(btbSize),
		ras:      bpred.NewRAS(rasDepth),
	}
	c.deco = decodeProg(prog.Insts)
	winSize := pow2at(cfg.WindowSize)
	c.win = make([]entry, winSize)
	c.winMask = uint32(winSize - 1)
	for i := range c.win {
		c.win[i].slot = uint16(i)
	}
	c.due = make([]int64, winSize)
	c.waiters = make([][]Handle, winSize)
	c.bmSize = uint32(winSize)
	c.bmMask = ^uint64(0) >> (64 - winSize)
	lq := pow2at(cfg.LSQSize)
	c.lsqRing = make([]Handle, lq)
	c.lsqMask = uint32(lq - 1)
	fq := pow2at(cfg.IFQSize)
	c.ifq = make([]fetched, fq)
	c.ifqMask = uint32(fq - 1)
	for i := range c.rename {
		c.rename[i] = NoHandle
	}
	for r, q := range qs.Pop {
		if int(r) < len(c.popQ) {
			c.popQ[r] = q
		}
	}
	for r, q := range qs.Push {
		if int(r) < len(c.pushQ) {
			c.pushQ[r] = q
		}
	}
	// Register the push-wakeup callback on every queue this core can
	// claim from: the consumer queues and the slip-control queues
	// (GETSCQ's hidden credit in blocking mode). A queue has exactly
	// one claiming core, so a single wake function per queue suffices.
	wake := c.queueWake
	for _, q := range c.popQ {
		if q != nil {
			q.SetWake(wake)
		}
	}
	for _, q := range qs.SCQ {
		if q != nil {
			q.SetWake(wake)
		}
	}
	c.pools = [poolMem + 1]*fuPool{
		poolIntALU:   &c.intALU,
		poolIntMulDv: &c.intMulDv,
		poolFPALU:    &c.fpALU,
		poolFPMulDv:  &c.fpMulDv,
		poolMem:      &c.memPorts,
	}
	c.intR[isa.SP] = isa.StackTop
	return c
}

// Halted reports whether the core has committed HALT.
func (c *Core) Halted() bool { return c.halted }

// Stats returns the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// CommittedCount returns the committed-instruction counter alone. The
// machine watchdog polls it every visited cycle; returning the whole
// Stats struct there copied ~136 bytes per core per cycle.
func (c *Core) CommittedCount() uint64 { return c.stats.Committed }

// Output returns values printed by OUT/OUTF at commit, in order.
func (c *Core) Output() []string { return c.output }

// Name returns the configured core name.
func (c *Core) Name() string { return c.cfg.Name }

// IntReg returns a committed integer register value (tests).
func (c *Core) IntReg(r isa.Reg) uint32 { return c.intR[r] }

// queueWake is the push-wakeup callback registered on every queue this
// core claims from: when a claimed value arrives (Push) or the queue
// closes, the queue calls back with the tag parked at claim time —
// handle<<2 | source-index — and the operand resolves immediately
// instead of the issue scan polling Ready per cycle. The handle check
// drops wakes for squashed consumers; the Ready re-check makes any
// surviving resolution semantically correct even for a stale tag that
// collides with a live claim (resolving a genuinely-ready claim early
// is always valid — commit re-verifies readiness independently).
func (c *Core) queueWake(tag uint64) {
	e := c.at(Handle(tag >> 2))
	if e == nil {
		return
	}
	s := &e.srcsBuf[tag&3]
	if s.ready || s.qref == nil || !s.qref.Ready(s.qseq) {
		return
	}
	s.val = s.qref.ValueAt(s.qseq)
	s.ready = true
	e.nready++
	c.readyBm |= uint64(1) << e.slot // back to being an issue candidate
	c.issueClean = false
	c.worked = true
}

// idleStalls is the set of stall counters an idle cycle may bump (at
// most once each per cycle). An idle cycle changes nothing else, so
// later idle cycles with unchanged inputs bump exactly the same set —
// which is what makes crediting a fast-forwarded span exact.
type idleStalls struct {
	fetch       int64
	dispatch    int64
	queueWait   int64
	memWait     int64
	commitQueue int64
}

// Cycle advances the core by one clock. Stage order models the
// pipeline flowing from commit back to fetch, so results propagate
// with realistic one-cycle stage separation.
func (c *Core) Cycle(now int64) error {
	_, err := c.CycleEv(now)
	return err
}

// CycleEv advances the core by one clock and returns the earliest
// future cycle at which this core can possibly change state again
// (its next event). The contract the machine's fast-forward relies on:
// if every component reports a wakeup > now+1, every cycle strictly
// before the minimum wakeup is an exact replay of this one (stall
// counters included), so they may be skipped and credited via
// CreditIdle. A core that did any work this cycle reports now+1; a
// core waiting only on another core (an architectural queue) reports
// math.MaxInt64 and relies on the producer's own wakeup to resume the
// clock.
// AttachEvents wires the machine-wide queue-mutation epoch into the
// core and enables the O(1) idle fast path (see the field comment).
// The naive reference loop (Config.NoSkip) does not call it.
func (c *Core) AttachEvents(epoch *int64) {
	c.epoch = epoch
	c.fastIdle = epoch != nil
}

func (c *Core) CycleEv(now int64) (int64, error) {
	if c.halted {
		return math.MaxInt64, nil
	}
	if c.idleValid {
		if *c.epoch == c.idleEpoch && now < c.idleUntil {
			// Provable replay of the last ticked idle cycle: no queue
			// anywhere has changed (epoch) and no local timer — an
			// in-flight completion or a reservation expiry — has fired
			// (idleUntil). Injected port stalls only lengthen
			// reservations, which cannot invalidate an idle replay.
			c.stats.Cycles++
			c.stats.FetchStalls += c.idleDelta.fetch
			c.stats.DispatchStalls += c.idleDelta.dispatch
			c.stats.QueueWaitCycles += c.idleDelta.queueWait
			c.stats.MemWaitCycles += c.idleDelta.memWait
			c.stats.CommitQueueStall += c.idleDelta.commitQueue
			return c.idleUntil, nil
		}
		c.idleValid = false
	}
	// Snapshot only the counters the idle-delta computation and the
	// self-healing guard below compare — copying the whole Stats
	// struct per ticked cycle was measurable.
	fs := struct {
		fetch, dispatch, queueWait, memWait, commitQueue int64
		committed, mispredicts, squashed, redirects      uint64
	}{
		c.stats.FetchStalls, c.stats.DispatchStalls, c.stats.QueueWaitCycles,
		c.stats.MemWaitCycles, c.stats.CommitQueueStall,
		c.stats.Committed, c.stats.Mispredicts, c.stats.Squashed, c.stats.DispatchRedirects,
	}
	c.worked = false
	c.stats.Cycles++
	if err := c.commitInsts(now); err != nil {
		return now + 1, fmt.Errorf("core %s: %w", c.cfg.Name, err)
	}
	if !c.halted {
		c.writeback(now)
		c.releasePushes(now)
		if err := c.issue(now); err != nil {
			return now + 1, fmt.Errorf("core %s: %w", c.cfg.Name, err)
		}
		c.dispatchInsts(now)
		c.fetch(now)
		c.accountStalls(now)
	}
	if !c.worked {
		// Self-healing guard: architectural progress must imply worked.
		// If a mark site is ever missed the core degrades to per-cycle
		// ticking instead of skipping incorrectly.
		if c.stats.Committed != fs.committed || c.stats.Mispredicts != fs.mispredicts ||
			c.stats.Squashed != fs.squashed || c.stats.DispatchRedirects != fs.redirects {
			c.worked = true
		}
	}
	if c.worked || c.halted {
		return now + 1, nil
	}
	c.idleDelta = idleStalls{
		fetch:       c.stats.FetchStalls - fs.fetch,
		dispatch:    c.stats.DispatchStalls - fs.dispatch,
		queueWait:   c.stats.QueueWaitCycles - fs.queueWait,
		memWait:     c.stats.MemWaitCycles - fs.memWait,
		commitQueue: c.stats.CommitQueueStall - fs.commitQueue,
	}
	wake := c.nextWake(now)
	if c.fastIdle {
		c.idleValid = true
		c.idleUntil = wake
		c.idleEpoch = *c.epoch
	}
	return wake, nil
}

// nextWake returns the earliest cycle after now at which an idle core
// has a self-contained reason to act: an in-flight instruction
// completing, or a functional-unit/cache-port reservation expiring
// (a head-of-window store or a ready load may be waiting on exactly
// that). Waits on architectural queues have no local deadline — the
// producing core's wakeup drives them — so they contribute MaxInt64.
func (c *Core) nextWake(now int64) int64 {
	wake := int64(math.MaxInt64)
	// Order doesn't matter for a minimum; iterate raw slot bits.
	for bm := c.inflightBm; bm != 0; bm &= bm - 1 {
		if d := c.due[bits.TrailingZeros64(bm)]; d > now && d < wake {
			wake = d
		}
	}
	for _, p := range [...]*fuPool{&c.intALU, &c.intMulDv, &c.fpALU, &c.fpMulDv, &c.memPorts} {
		for _, b := range p.busyUntil {
			if b > now && b < wake {
				wake = b
			}
		}
	}
	return wake
}

// CreditIdle accounts n fast-forwarded idle cycles exactly as if they
// had been ticked: the cycle counter advances and the stall pattern of
// the last (idle) cycle repeats n times.
func (c *Core) CreditIdle(n int64) {
	if c.halted || n <= 0 {
		return
	}
	c.stats.Cycles += n
	c.stats.FetchStalls += n * c.idleDelta.fetch
	c.stats.DispatchStalls += n * c.idleDelta.dispatch
	c.stats.QueueWaitCycles += n * c.idleDelta.queueWait
	c.stats.MemWaitCycles += n * c.idleDelta.memWait
	c.stats.CommitQueueStall += n * c.idleDelta.commitQueue
}

// --- commit ---

func (c *Core) commitInsts(now int64) error {
	for n := 0; n < c.cfg.CommitWidth && c.winHead < c.winTail; n++ {
		e := &c.win[uint32(c.winHead)&c.winMask]
		if !e.completed {
			return nil
		}
		if e.execErr != nil {
			return fmt.Errorf("pc %d (%v): %w", e.pc, &c.prog.Insts[e.pc], e.execErr)
		}
		d := &c.deco[e.pc]
		// Queue-operand values must have arrived (claims satisfied).
		if d.hasQSrc {
			for i := 0; i < int(e.nsrc); i++ {
				s := &e.srcsBuf[i]
				if s.qref != nil && !s.qref.Ready(s.qseq) {
					return nil
				}
			}
		}
		// Output-queue space for every push this instruction performs
		// (usually released already at non-speculative completion).
		var pushes []pushOp
		if !e.pushed && d.hasPush {
			pushes = c.pushPlan(e)
			if !queuesHaveSpace(pushes) {
				c.stats.CommitQueueStall++
				return nil
			}
		}
		// Stores need a cache port to retire into the write buffer.
		if e.isStore {
			if !e.addrReady {
				return nil
			}
			if !c.memPorts.acquire(now, 1) {
				return nil
			}
			c.storeCommit(now, e)
		}
		c.worked = true

		// Effects.
		if e.dest.IsArch() && e.dest != isa.R0 {
			c.writeReg(e.dest, e.result)
			if c.rename[e.dest] == e.handle() {
				c.rename[e.dest] = NoHandle
			}
		}
		for _, p := range pushes {
			if !p.q.Push(p.v) {
				panic("cpu: push space vanished within commit")
			}
		}
		if len(pushes) > 0 {
			c.trace(now, StagePush, e, "")
		}
		e.pushed = true // the release list must not push this entry again
		if d.hasQSrc {
			for i := 0; i < int(e.nsrc); i++ {
				if s := &e.srcsBuf[i]; s.qref != nil {
					s.qref.Free(s.qseq)
				}
			}
		}
		if e.isCtl {
			c.stats.CommittedBranch++
			if d.updatesPred {
				c.pred.Update(e.pc, e.taken)
			}
			if d.updatesBTB {
				c.btb.Update(e.pc, e.actualNext)
			}
		}
		switch d.commit {
		case ckOut:
			c.output = append(c.output, fmt.Sprintf("%d", int32(uint32(e.result))))
		case ckOutf:
			c.output = append(c.output, fmt.Sprintf("%g", math.Float64frombits(e.result)))
		case ckHalt:
			c.halted = true
		}
		if d.consumeSCQ || (d.isGetSCQ && !c.cfg.BlockingSCQ) {
			if id := int(d.scqID); id < len(c.qs.SCQ) && c.qs.SCQ[id] != nil {
				c.qs.SCQ[id].PopCommitted() // non-blocking credit consume
			}
		}
		if e.isLoad {
			c.stats.CommittedLoads++
		}
		if e.isStore {
			c.stats.CommittedStores++
			c.issueClean = false // leaving the LSQ can unblock younger loads
		}
		c.stats.Committed++
		c.recentPCs[c.recentLen%recentPCDepth] = int32(e.pc)
		c.recentLen++
		if c.cfg.Tracer != nil {
			c.trace(now, StageCommit, e, "")
		}
		c.winHead++
		if e.isLoad || e.isStore {
			c.lsqHead++
		}
		// Departure: every outstanding handle to this entry goes stale.
		e.gen++
		if c.halted {
			return nil
		}
	}
	return nil
}

type pushOp struct {
	q *queue.Queue
	v uint64
}

// queuesHaveSpace reports whether every architectural queue named in
// pushes can accept all of its pushes at once. The early-release path
// and the commit fallback both gate on this single predicate, so the
// two claim-accounting sites cannot drift apart. The scan is quadratic
// in the push count, which is at most three per instruction.
func queuesHaveSpace(pushes []pushOp) bool {
	for i := range pushes {
		q := pushes[i].q
		seen := false
		for j := 0; j < i; j++ {
			if pushes[j].q == q {
				seen = true
				break
			}
		}
		if seen {
			continue // q already checked at its first occurrence
		}
		need := 1
		for j := i + 1; j < len(pushes); j++ {
			if pushes[j].q == q {
				need++
			}
		}
		if q.Cap()-q.Len() < need {
			return false
		}
	}
	return true
}

// releasePushes performs queue pushes for completed entries that are
// no longer control-speculative, in program order. Decoupling depends
// on this: the producer's commit may legitimately wait on the consumer
// (e.g. an Access Processor store whose datum the Computation
// Processor has not produced yet), so pushing only at commit would
// serialise the two streams into lockstep.
func (c *Core) releasePushes(now int64) {
	oldestUnresolved := int64(math.MaxInt64)
	if bm := c.rotBm(c.ctlBm); bm != 0 {
		head := uint32(c.winHead) & c.winMask
		slot := (head + uint32(bits.TrailingZeros64(bm))) & c.winMask
		oldestUnresolved = c.win[slot].seq
	}
	for c.pushHead < len(c.pushList) {
		ref := c.pushList[c.pushHead]
		e := c.at(ref.h)
		if e == nil || e.seq != ref.seq || e.pushed {
			// Departed (committed with pushes done, or squashed), or
			// already pushed by the commit fallback (the commit stage
			// reaches an entry first when the release head was blocked
			// on queue space in the preceding cycles). The seq compare
			// rejects a generation-wrapped handle that landed on a live
			// re-occupant of the slot.
			c.pushHead++
			c.worked = true
			continue
		}
		if !e.completed || e.execErr != nil || e.seq >= oldestUnresolved {
			break
		}
		pushes := c.pushPlan(e)
		if !queuesHaveSpace(pushes) {
			return // retry next cycle; order must be preserved
		}
		for _, p := range pushes {
			if !p.q.Push(p.v) {
				panic("cpu: push space vanished within release")
			}
		}
		if len(pushes) > 0 {
			c.trace(now, StagePush, e, "")
		}
		e.pushed = true
		c.pushHead++
		c.worked = true
	}
	if c.pushHead > 4096 {
		n := copy(c.pushList, c.pushList[c.pushHead:])
		c.pushList = c.pushList[:n]
		c.pushHead = 0
	}
}

// pushPlan lists the queue pushes instruction e performs at commit.
// The result aliases a scratch buffer on the core and is only valid
// until the next pushPlan call.
func (c *Core) pushPlan(e *entry) []pushOp {
	d := &c.deco[e.pc]
	out := c.pushScratch[:0]
	add := func(r isa.Reg, v uint64) {
		q := c.pushQ[r]
		if q == nil {
			return
		}
		out = append(out, pushOp{q, v})
	}
	if e.dest.IsQueue() {
		add(e.dest, e.result)
	}
	if d.tapLDQ {
		add(isa.RegLDQ, e.result)
	}
	if d.tapSDQ {
		add(isa.RegSDQ, e.result)
	}
	if d.pushCQ {
		switch {
		case d.isCondBr:
			v := uint64(0)
			if e.taken {
				v = 1
			}
			add(isa.RegCQ, v)
		case d.updatesBTB:
			add(isa.RegCQ, uint64(uint32(e.actualNext)))
		}
	}
	if d.isPutSCQ {
		id := int(d.imm)
		if id < len(c.qs.SCQ) && c.qs.SCQ[id] != nil {
			out = append(out, pushOp{c.qs.SCQ[id], 1})
		}
	}
	c.pushScratch = out[:0]
	return out
}

func (c *Core) storeCommit(now int64, e *entry) {
	c.hier.Access(now, e.addr, true, false)
	v := e.srcsBuf[1].val
	switch c.deco[e.pc].op {
	case isa.SW:
		c.mem.Write32(e.addr, uint32(v))
	case isa.SB:
		c.mem.Write8(e.addr, byte(v))
	case isa.SFD:
		c.mem.Write64(e.addr, v)
	}
}

func (c *Core) writeReg(r isa.Reg, raw uint64) {
	if r.IsFP() {
		c.fpR[r.FPIndex()] = math.Float64frombits(raw)
	} else if r != isa.R0 {
		c.intR[r] = uint32(raw)
	}
}

// --- writeback ---

// flushIFQ empties the instruction fetch queue (redirect or squash).
func (c *Core) flushIFQ() {
	c.ifqHead = c.ifqTail
	c.fetchCQPeek = 0
}

// ifqLen returns the number of fetched instructions awaiting dispatch.
func (c *Core) ifqLen() int { return int(c.ifqTail - c.ifqHead) }

// rotBm rotates a slot bitmap so bit 0 corresponds to the window
// head's slot; trailing-zero iteration then yields window positions in
// program order.
func (c *Core) rotBm(bm uint64) uint64 {
	h := uint32(c.winHead) & c.winMask
	return (bm>>h | bm<<(c.bmSize-h)) & c.bmMask
}

func (c *Core) writeback(now int64) {
	if now < c.minComplete {
		return // no in-flight completion is due yet (see minComplete)
	}
	pending := int64(math.MaxInt64)
	head := uint32(c.winHead) & c.winMask
	for bm := c.rotBm(c.inflightBm); bm != 0; bm &= bm - 1 {
		o := uint32(bits.TrailingZeros64(bm))
		slot := (head + o) & c.winMask
		if d := c.due[slot]; d > now {
			if d < pending {
				pending = d
			}
			continue
		}
		if c.completeEntry(now, c.winHead+int64(o), slot) {
			return // window changed; stop scanning
		}
	}
	c.minComplete = pending
}

// completeEntry finishes the issued entry at window position p (slot is
// p's slot), delivering its result to waiting consumers. It returns
// true when the entry was a mispredicted branch and the window was
// squashed behind it — the caller's scan indices are then stale and it
// must stop.
func (c *Core) completeEntry(now, p int64, slot uint32) bool {
	e := &c.win[slot]
	e.completed = true
	bit := uint64(1) << slot
	c.inflightBm &^= bit
	c.ctlBm &^= bit
	c.issueClean = false // a completion delivers operands / resolves stores
	c.worked = true
	if len(c.waiters[slot]) > 0 {
		c.wakeWaiters(slot, e)
	}
	if c.cfg.Tracer != nil {
		c.trace(now, StageComplete, e, "")
	}
	if e.isCtl && e.actualNext != e.predNext {
		c.stats.Mispredicts++
		if c.cfg.Tracer != nil {
			c.trace(now, StageSquash, e, fmt.Sprintf("mispredict: %d not %d", e.actualNext, e.predNext))
		}
		// The squash may drop pending entries and the scan stops
		// early; reset the bound so the next cycle rescans.
		c.minComplete = 0
		c.squashAfter(p)
		c.pc = e.actualNext
		c.fetchStopped = false
		c.flushIFQ()
		return true
	}
	return false
}

// squashAfter removes every entry at a window position greater than
// pos, rewinding queue claims and rebuilding the rename table. Each
// removed entry's generation bumps, which atomically invalidates every
// outstanding handle to it — the rename table, LSQ ring, waiter lists,
// push-release list and parked queue-wake tags all fail the generation
// compare instead of being walked and edited.
func (c *Core) squashAfter(pos int64) {
	for c.winTail > pos+1 {
		slot := uint32(c.winTail-1) & c.winMask
		w := &c.win[slot]
		// Unclaim in reverse dispatch order (youngest first, and within
		// an entry last source first) so per-queue claim counters rewind
		// exactly; the queue drops any waiter parked on a dead claim.
		for j := int(w.nsrc) - 1; j >= 0; j-- {
			if q := w.srcsBuf[j].qref; q != nil {
				q.Unclaim(1)
			}
		}
		if w.isLoad || w.isStore {
			// The LSQ is position-ordered, so squashing the window tail
			// truncates exactly the LSQ tail.
			c.lsqTail--
		}
		c.stats.Squashed++
		bit := uint64(1) << slot
		c.readyBm &^= bit
		c.inflightBm &^= bit
		c.ctlBm &^= bit
		w.gen++
		c.winTail--
	}
	c.issueClean = false
	// Rebuild the rename table from survivors (completed producers
	// included: a later consumer still captures their result).
	for i := range c.rename {
		c.rename[i] = NoHandle
	}
	for p := c.winHead; p < c.winTail; p++ {
		w := &c.win[uint32(p)&c.winMask]
		if w.dest.IsArch() && w.dest != isa.R0 {
			c.rename[w.dest] = w.handle()
		}
	}
}

// --- issue/execute ---

func (c *Core) issue(now int64) error {
	if c.issueClean && c.fastIdle && *c.epoch == c.issueEpoch && now < c.issueRetryAt {
		// Provably fruitless scan: the last one issued nothing, and no
		// event since could have unblocked an entry (see field comment).
		return nil
	}
	if c.fastIdle {
		c.issueEpoch = *c.epoch
	}
	retryAt := int64(math.MaxInt64)
	issued := 0
	// Visit only the candidate slots, in program order. Operand-blocked
	// entries are not in readyBm, so an occupied window stalled on far
	// operands costs a popcount, not a walk.
	head := uint32(c.winHead) & c.winMask
	for bm := c.rotBm(c.readyBm); bm != 0 && issued < c.cfg.IssueWidth; bm &= bm - 1 {
		o := uint32(bits.TrailingZeros64(bm))
		c.issueVisit(now, (head+o)&c.winMask, &issued, &retryAt)
	}
	// A scan that issued anything may have unblocked entries it already
	// passed (or was truncated by the issue width); only a fully
	// fruitless scan arms the gate.
	c.issueClean = issued == 0
	c.issueRetryAt = retryAt
	return nil
}

// issueVisit attempts to advance the unissued entry at slot. Entries
// it proves operand-blocked leave readyBm (the delivering wake puts
// them back); entries blocked on disambiguation or a busy unit stay,
// since their unblocking events don't run through a wake.
func (c *Core) issueVisit(now int64, slot uint32, issued *int, retryAt *int64) {
	e := &c.win[slot]
	bit := uint64(1) << slot
	switch {
	case e.isStore:
		// Address generation when the base register arrives; the
		// store completes when address and data are both present.
		if !e.addrReady && e.srcsBuf[0].ready {
			e.addr = uint32(e.srcsBuf[0].val) + uint32(c.deco[e.pc].imm)
			e.addrReady = true
			c.worked = true
			*issued++
		}
		if e.addrReady && e.srcsBuf[1].ready && !e.issued {
			e.issued = true
			c.due[slot] = now + 1
			c.readyBm &^= bit
			c.inflightBm |= bit
			e.completed = false
			e.completeAt = now + 1
			if e.completeAt < c.minComplete {
				c.minComplete = e.completeAt
			}
			c.worked = true
		} else {
			c.readyBm &^= bit // waiting on the base or the datum
		}
		return
	case e.isLoad:
		if !e.srcsBuf[0].ready {
			c.readyBm &^= bit // waiting on the base register
			return
		}
		if !e.addrReady {
			e.addr = uint32(e.srcsBuf[0].val) + uint32(c.deco[e.pc].imm)
			e.addrReady = true
			c.worked = true
		}
		ok, fwd, wait := c.loadDisambiguate(e)
		if wait || !ok {
			return // disambiguation wait: stays a candidate
		}
		if fwd != nil {
			if err := c.loadForward(e, fwd); err != nil {
				e.execErr = err
			}
			e.issued = true
			c.due[slot] = now + 1
			c.readyBm &^= bit
			c.inflightBm |= bit
			e.completeAt = now + 1
			if e.completeAt < c.minComplete {
				c.minComplete = e.completeAt
			}
			c.worked = true
			*issued++
			return
		}
		if !c.memPorts.acquire(now, 1) {
			if t := c.memPorts.freeAt; t < *retryAt {
				*retryAt = t
			}
			return // port-blocked: stays a candidate
		}
		done := c.hier.Access(now, e.addr, false, c.deco[e.pc].op == isa.PREF)
		c.loadValue(e)
		e.issued = true
		c.due[slot] = done
		c.readyBm &^= bit
		c.inflightBm |= bit
		e.completeAt = done
		if done < c.minComplete {
			c.minComplete = done
		}
		c.worked = true
		*issued++
		return
	}
	// Non-memory operations need every operand.
	if int(e.nready) < int(e.nsrc) {
		c.readyBm &^= bit // waiting on an operand wake
		return
	}
	d := &c.deco[e.pc]
	if pool := c.pools[d.pool]; pool != nil && !pool.acquire(now, d.occupy) {
		// acquire just refreshed freeAt (or fast-failed against a
		// still-valid one); either bound is a sound retry time.
		if t := pool.freeAt; t < *retryAt {
			*retryAt = t
		}
		return // unit-blocked: stays a candidate
	}
	c.execute(now, e, d)
	c.due[slot] = e.completeAt
	c.readyBm &^= bit
	c.inflightBm |= bit
	*issued++
}

// wakeWaiters resolves the operands of every consumer waiting on a
// just-completed producer — the push half of operand wakeup. Register
// results are delivered here, at completion inside writeback, instead
// of each consumer polling its producers every cycle in the issue
// scan; the consuming entry observes exactly the same state when issue
// runs later in the same cycle. A stale waiter handle (a squashed
// consumer, even one whose slot has been re-occupied) fails the
// generation compare or the producer match and falls through.
func (c *Core) wakeWaiters(slot uint32, e *entry) {
	myH := e.handle()
	ws := c.waiters[slot]
	for _, wh := range ws {
		w := c.at(wh)
		if w == nil {
			continue
		}
		for i := 0; i < int(w.nsrc); i++ {
			s := &w.srcsBuf[i]
			if s.producer == myH {
				s.val = e.result
				s.ready = true
				s.producer = NoHandle
				w.nready++
				c.readyBm |= uint64(1) << w.slot // back to being an issue candidate
			}
		}
	}
	c.waiters[slot] = ws[:0]
}

// loadDisambiguate applies the LSQ rules: the load may proceed when
// every older store has a known address and none overlaps; an older
// store with an identical address range and ready data forwards; any
// other overlap waits. The returned *entry is only used within the
// same cycle (the window ring never reallocates), so a raw pointer is
// safe here.
func (c *Core) loadDisambiguate(e *entry) (ok bool, fwd *entry, wait bool) {
	lo, hi := e.addr, e.addr+c.deco[e.pc].msize
	var newestFwd *entry
	for p := c.lsqHead; p < c.lsqTail; p++ {
		s := c.at(c.lsqRing[uint32(p)&c.lsqMask])
		if s == nil {
			panic("cpu: stale LSQ handle")
		}
		if s.seq >= e.seq {
			break
		}
		if !s.isStore {
			continue
		}
		if !s.addrReady {
			return false, nil, true
		}
		slo, shi := s.addr, s.addr+c.deco[s.pc].msize
		if hi <= slo || shi <= lo {
			continue // disjoint
		}
		if slo == lo && shi == hi {
			if s.srcsBuf[1].ready {
				newestFwd = s
				continue
			}
			return false, nil, true // matching store, data not ready
		}
		return false, nil, true // partial overlap: wait for commit
	}
	return true, newestFwd, false
}

func (c *Core) loadForward(e *entry, s *entry) error {
	v := s.srcsBuf[1].val
	switch c.deco[e.pc].op {
	case isa.LW:
		e.result = uint64(uint32(v))
	case isa.LBU:
		e.result = uint64(byte(v))
	case isa.LFD:
		e.result = v
	}
	return nil
}

// loadValue reads the architectural value; disambiguation guarantees
// no older in-flight store overlaps.
func (c *Core) loadValue(e *entry) {
	switch c.deco[e.pc].op {
	case isa.LW:
		e.result = uint64(c.mem.Read32(e.addr))
	case isa.LBU:
		e.result = uint64(c.mem.Read8(e.addr))
	case isa.LFD:
		e.result = c.mem.Read64(e.addr)
	case isa.PREF:
		// no architectural effect
	}
}

func memSize(op isa.Op) int {
	switch op {
	case isa.LBU, isa.SB:
		return 1
	case isa.LFD, isa.SFD:
		return 8
	default:
		return 4
	}
}

// execute computes the result of a non-memory instruction and
// schedules its completion d.lat cycles out (the decode-table latency
// of its functional-unit class). Everything it needs is in the decode
// record and the entry — the Inst struct is never touched here.
func (c *Core) execute(now int64, e *entry, d *dec) {
	val := func(i int) uint64 {
		if i < int(e.nsrc) {
			return e.srcsBuf[i].val
		}
		return 0
	}

	var err error
	switch d.op {
	case isa.NOP, isa.HALT, isa.GETSCQ, isa.PUTSCQ:
		// GETSCQ's credit is its operand; PUTSCQ pushes at commit.
	case isa.OUT, isa.OUTF:
		e.result = val(0)

	case isa.BCQ:
		c.resolveCtlToken(e, val(0))
	case isa.J:
		e.taken = true
		e.actualNext = d.target
	case isa.JAL:
		e.taken = true
		e.actualNext = d.target
		e.result = uint64(uint32(e.pc + 1))
	case isa.JR, isa.JALR:
		e.taken = true
		e.actualNext = int(int32(uint32(val(0))))
		if d.op == isa.JALR {
			e.result = uint64(uint32(e.pc + 1))
		}
		if e.actualNext < 0 || e.actualNext >= len(c.prog.Insts) {
			err = fmt.Errorf("indirect jump to %d out of range", e.actualNext)
			e.actualNext = 0
		}
	case isa.JCQ:
		c.resolveCtlToken(e, val(0))

	default:
		// Computational ops and conditional branches: the isa table.
		// The sources are register bits already (a queue source's raw
		// bits included).
		if d.sem.Fn == nil {
			err = fmt.Errorf("unimplemented op %v", d.op)
			break
		}
		a, b := val(0), val(1)
		if d.immB {
			b = uint64(uint32(d.imm))
		}
		if d.sem.Faults(b) {
			err = errors.New(d.sem.Fault)
		}
		if d.isCondBr {
			e.taken = d.sem.Fn(a, b) != 0
			e.actualNext = e.pc + 1
			if e.taken {
				e.actualNext = d.target
			}
		} else {
			e.result = d.sem.Fn(a, b)
		}
	}
	if err != nil {
		e.execErr = err
	}
	e.issued = true
	e.completeAt = now + d.lat
	if e.completeAt < c.minComplete {
		c.minComplete = e.completeAt
	}
	c.worked = true
	if c.cfg.Tracer != nil {
		c.trace(now, StageIssue, e, "")
	}
}

// --- dispatch ---

func (c *Core) dispatchInsts(now int64) {
	for n := 0; n < c.cfg.IssueWidth && c.ifqHead < c.ifqTail; n++ {
		if c.winTail-c.winHead >= int64(c.cfg.WindowSize) {
			c.stats.DispatchStalls++
			return
		}
		f := c.ifq[uint32(c.ifqHead)&c.ifqMask]
		d := &c.deco[f.pc]
		isMem := d.isMem
		if isMem && c.lsqTail-c.lsqHead >= int64(c.cfg.LSQSize) {
			c.stats.DispatchStalls++
			return
		}
		c.ifqHead++
		c.worked = true
		if d.isCQCtl && c.fetchCQPeek > 0 {
			c.fetchCQPeek--
		}

		// Claim the tail slot. Occupancy < WindowSize <= ring size, so
		// the slot is vacant; its generation was bumped when the
		// previous occupant departed, so the fresh handle is distinct
		// from every outstanding one.
		slot := uint32(c.winTail) & c.winMask
		e := &c.win[slot]
		c.waiters[slot] = c.waiters[slot][:0]
		h := e.handle()
		e.seq = c.nextSeq
		e.pc = f.pc
		e.dest = d.dest
		e.predNext = f.predNext
		e.isCtl = d.isCtl
		e.isLoad = d.isLoad
		e.isStore = d.isStore
		c.nextSeq++
		e.actualNext = f.pc + 1 // non-control default: never mispredicts
		e.result = 0
		e.execErr = nil
		e.issued = false
		e.completed = false
		e.completeAt = 0
		e.taken = false
		e.addr = 0
		e.addrReady = false
		e.pushed = false
		e.nready = 0
		if isMem && !c.cfg.HasMem {
			e.execErr = fmt.Errorf("memory operation %v on a core without memory access", d.op)
		}

		// Operands are built in place in srcsBuf. Queue claims that are
		// already satisfied resolve on the spot; unsatisfied ones park a
		// wake tag (handle<<2 | source index) with the queue, which
		// calls queueWake at the Push that satisfies them — no per-cycle
		// polling. Register operands resolve from a completed producer's
		// result, a parked waiter registration on a pending producer, or
		// the committed register file.
		nsrc := int(d.nsrc)
		for si := 0; si < nsrc; si++ {
			r := d.src[si]
			s := &e.srcsBuf[si]
			s.reg = r
			s.ready = false
			s.val = 0
			s.producer = NoHandle
			s.qref = nil
			switch {
			case r.IsQueue():
				q := c.popQ[r]
				if q == nil {
					e.execErr = fmt.Errorf("no pop rights on %v", r)
					s.ready = true
				} else {
					s.qref = q
					s.qseq = q.Claim()
					if q.Ready(s.qseq) {
						s.val = q.ValueAt(s.qseq)
						s.ready = true
					} else {
						q.AddWaiter(s.qseq, uint64(h)<<2|uint64(si))
					}
				}
			case r == isa.R0:
				s.ready = true
			default:
				if ph := c.rename[r]; ph != NoHandle {
					prod := &c.win[uint32(ph)&c.winMask]
					if prod.completed {
						s.val = prod.result
						s.ready = true
					} else {
						s.producer = ph
						ps := uint32(ph) & 0xffff
						c.waiters[ps] = append(c.waiters[ps], h)
					}
				} else {
					s.val = c.readReg(r)
					s.ready = true
				}
			}
			if s.ready {
				e.nready++
			}
		}
		// In blocking mode GETSCQ consumes a slip-control credit as a
		// hidden operand (in non-blocking mode the credit, if present,
		// is consumed at commit).
		if d.isGetSCQ && c.cfg.BlockingSCQ {
			id := int(d.imm)
			if id < len(c.qs.SCQ) && c.qs.SCQ[id] != nil {
				q := c.qs.SCQ[id]
				s := &e.srcsBuf[nsrc]
				s.reg = isa.RegSCQ
				s.ready = false
				s.val = 0
				s.producer = NoHandle
				s.qref = q
				s.qseq = q.Claim()
				if q.Ready(s.qseq) {
					s.val = q.ValueAt(s.qseq)
					s.ready = true
					e.nready++
				} else {
					q.AddWaiter(s.qseq, uint64(h)<<2|uint64(nsrc))
				}
				nsrc++
			}
		}
		e.nsrc = uint8(nsrc)

		if e.dest.IsArch() && e.dest != isa.R0 {
			c.rename[e.dest] = h
		}
		if d.noExec {
			e.issued = true
			e.completed = true
			e.completeAt = now
		}
		if c.cfg.Tracer != nil {
			c.trace(now, StageDispatch, e, "")
		}
		c.winTail++
		if isMem {
			c.lsqRing[uint32(c.lsqTail)&c.lsqMask] = h
			c.lsqTail++
		}
		if d.hasPush {
			c.pushList = append(c.pushList, pushRef{seq: e.seq, h: h})
		}

		if c.cfg.EnableTriggers && d.trigger && c.OnTrigger != nil {
			c.OnTrigger(int(d.cmasID), &c.intR, &c.fpR)
		}

		// Control-queue branches resolve at dispatch when their token
		// has already arrived (the usual case: the Access Processor
		// runs ahead). A wrong fetch direction then only flushes the
		// fetch queue — no window squash, no mispredict penalty. This
		// is the hardware benefit of an *architectural* control queue
		// over prediction.
		if d.isCQCtl && nsrc == 1 {
			s0 := &e.srcsBuf[0]
			if s0.qref != nil && s0.ready {
				c.resolveCtlToken(e, s0.val)
				e.issued, e.completed = true, true
				e.completeAt = now
				if e.execErr == nil && e.actualNext != e.predNext {
					c.stats.DispatchRedirects++
					if c.cfg.Tracer != nil {
						c.trace(now, StageRedirect, e, fmt.Sprintf("token steers to %d", e.actualNext))
					}
					c.flushIFQ()
					c.pc = e.actualNext
					c.fetchStopped = false
					e.predNext = e.actualNext // already steered; nothing to squash
				}
			}
		}

		if !e.issued {
			c.readyBm |= uint64(1) << slot
		}
		if e.isCtl && !e.completed {
			c.ctlBm |= uint64(1) << slot
		}
		c.issueClean = false // the new entry is an issue candidate
	}
}

// resolveCtlToken computes the target of a BCQ/JCQ from its token.
func (c *Core) resolveCtlToken(e *entry, v uint64) {
	d := &c.deco[e.pc]
	if d.op == isa.BCQ {
		e.taken = v != 0
		e.actualNext = e.pc + 1
		if e.taken {
			e.actualNext = d.target
		}
		return
	}
	e.taken = true
	t, ok := c.translateJCQ(v)
	if !ok {
		e.execErr = fmt.Errorf("JCQ token %d out of range", int32(uint32(v)))
	}
	e.actualNext = t
}

// translateJCQ maps a control-queue token to this core's instruction
// index via the JCQ table.
func (c *Core) translateJCQ(v uint64) (int, bool) {
	t := int(int32(uint32(v)))
	if c.cfg.JCQMap != nil {
		if t < 0 || t >= len(c.cfg.JCQMap) {
			return 0, false
		}
		t = c.cfg.JCQMap[t]
	}
	if t < 0 || t >= len(c.prog.Insts) {
		return 0, false
	}
	return t, true
}

func (c *Core) readReg(r isa.Reg) uint64 {
	if r.IsFP() {
		return math.Float64bits(c.fpR[r.FPIndex()])
	}
	return uint64(c.intR[r])
}

// --- fetch ---

func (c *Core) fetch(now int64) {
	if c.fetchStopped {
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.ifqLen() >= c.cfg.IFQSize {
			c.stats.FetchStalls++
			return
		}
		if c.pc < 0 || c.pc >= len(c.prog.Insts) {
			c.fetchStopped = true
			c.worked = true
			return
		}
		d := &c.deco[c.pc]
		next := c.pc + 1
		taken := false
		switch d.ctlKind {
		case ctlNone:
		case ctlHalt:
			c.ifq[uint32(c.ifqTail)&c.ifqMask] = fetched{pc: c.pc, predNext: next}
			c.ifqTail++
			c.fetchStopped = true
			c.worked = true
			return
		case ctlJ:
			next = d.target
			taken = true
		case ctlJAL:
			c.ras.Push(c.pc + 1)
			next = d.target
			taken = true
		case ctlCQBranch, ctlCQJump:
			// Steer fetch down the queued control token when it is
			// already present: the architectural queue replaces
			// prediction. The dispatch-time claim verifies the
			// direction, so a wrong peek only costs a fetch redirect.
			steered := false
			if q := c.popQ[isa.RegCQ]; q != nil {
				if v, ok := q.PeekFuture(c.fetchCQPeek); ok {
					if d.ctlKind == ctlCQBranch {
						if v != 0 {
							next = d.target
							taken = true
						}
					} else if t, ok := c.translateJCQ(v); ok {
						next = t
						taken = true
					}
					steered = true
				}
			}
			if !steered {
				if d.ctlKind == ctlCQBranch {
					if c.predictTaken(now) {
						next = d.target
						taken = true
					}
				} else if t, ok := c.btb.Lookup(c.pc); ok {
					next = t
					taken = true
				}
			}
			c.fetchCQPeek++
		case ctlJRRA:
			if t, ok := c.ras.Pop(); ok {
				next = t
				taken = true
			} else if t, ok := c.btb.Lookup(c.pc); ok {
				next = t
				taken = true
			}
		case ctlJR:
			if t, ok := c.btb.Lookup(c.pc); ok {
				next = t
				taken = true
			}
		case ctlJALR:
			if t, ok := c.btb.Lookup(c.pc); ok {
				next = t
				taken = true
			}
			c.ras.Push(c.pc + 1)
		case ctlCond:
			if c.predictTaken(now) {
				next = d.target
				taken = true
			}
		}
		c.ifq[uint32(c.ifqTail)&c.ifqMask] = fetched{pc: c.pc, predNext: next}
		c.ifqTail++
		c.pc = next
		c.worked = true
		if taken {
			return // fetch break after a predicted-taken branch
		}
	}
}

// predictTaken consults the branch predictor for the instruction at
// the current fetch PC, inverting the answer when a fault-injection
// mispredict storm is active.
func (c *Core) predictTaken(now int64) bool {
	t := c.pred.Predict(c.pc)
	if c.cfg.ForceMispredict != nil && c.cfg.ForceMispredict(now) {
		t = !t
	}
	return t
}

// StallMemPorts holds every cache port busy until the given cycle;
// the fault injector uses it to starve a core's memory pipeline.
func (c *Core) StallMemPorts(until int64) {
	for i := range c.memPorts.busyUntil {
		if c.memPorts.busyUntil[i] < until {
			c.memPorts.busyUntil[i] = until
		}
	}
	// A recorded issue retry time may now be stale-early; rescanning is
	// always safe, so just disarm the gate.
	c.issueClean = false
}

// recentPCDepth is the committed-PC ring buffer depth kept per core
// for fault snapshots.
const recentPCDepth = 32

// FaultState captures the core's pipeline state for a fault snapshot.
// It is called between cycles (never from inside Cycle).
func (c *Core) FaultState() simfault.CoreState {
	cs := simfault.CoreState{
		Name:         c.cfg.Name,
		Halted:       c.halted,
		PC:           c.pc,
		Committed:    c.stats.Committed,
		Squashed:     c.stats.Squashed,
		WindowOcc:    int(c.winTail - c.winHead),
		WindowCap:    c.cfg.WindowSize,
		LSQOcc:       int(c.lsqTail - c.lsqHead),
		LSQCap:       c.cfg.LSQSize,
		IFQOcc:       c.ifqLen(),
		IFQCap:       c.cfg.IFQSize,
		FetchStopped: c.fetchStopped,
	}
	n := c.recentLen
	if n > recentPCDepth {
		n = recentPCDepth
	}
	for i := uint64(0); i < n; i++ {
		cs.RecentPCs = append(cs.RecentPCs, int(c.recentPCs[(c.recentLen-n+i)%recentPCDepth]))
	}
	if c.winHead < c.winTail {
		e := &c.win[uint32(c.winHead)&c.winMask]
		h := &simfault.HeadState{
			PC:         e.pc,
			Inst:       c.prog.Insts[e.pc].String(),
			Seq:        e.seq,
			Issued:     e.issued,
			Completed:  e.completed,
			CompleteAt: e.completeAt,
			IsLoad:     e.isLoad,
			IsStore:    e.isStore,
			Addr:       e.addr,
			AddrReady:  e.addrReady,
		}
		for i := 0; i < int(e.nsrc); i++ {
			s := &e.srcsBuf[i]
			src := simfault.SourceState{
				Reg:        s.reg.String(),
				Ready:      s.ready,
				ProducerPC: -1,
			}
			if s.qref != nil {
				src.Queue = s.qref.Name()
				src.Seq = s.qseq
				src.QueueReady = s.qref.Ready(s.qseq)
			}
			if p := c.at(s.producer); p != nil {
				src.ProducerPC = p.pc
				src.ProducerDone = p.completed
			}
			h.Sources = append(h.Sources, src)
		}
		cs.Head = h
	}
	return cs
}

// accountStalls attributes head-of-window wait reasons for the LOD
// analysis.
func (c *Core) accountStalls(now int64) {
	if c.winHead >= c.winTail {
		return
	}
	e := &c.win[uint32(c.winHead)&c.winMask]
	if e.completed {
		return
	}
	for i := 0; i < int(e.nsrc); i++ {
		s := &e.srcsBuf[i]
		if !s.ready && s.qref != nil && !s.qref.Ready(s.qseq) {
			c.stats.QueueWaitCycles++
			return
		}
	}
	if e.issued && (e.isLoad || e.isStore) {
		c.stats.MemWaitCycles++
	}
}
