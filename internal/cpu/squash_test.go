package cpu

import (
	"fmt"
	"testing"

	"hidisc/internal/fnsim"
	"hidisc/internal/isa"
	"hidisc/internal/mem"
	"hidisc/internal/simfault"
)

// checkWindowInvariants audits every cross-structure reference of the
// window-as-values scheme after a cycle: the due mirror, the slot
// bitmaps, the rename table, the LSQ ring and pending operand
// producers. Its core assertion is that no stale-generation handle
// ever resolves — a squashed entry's handle must fail at() everywhere
// it could still be stored — and the dual: every live cross-reference
// must still resolve to the entry it was created for.
func checkWindowInvariants(t *testing.T, c *Core, cycle int64) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("cycle %d: "+format, append([]any{cycle}, args...)...)
	}
	occ := c.winTail - c.winHead
	if occ < 0 || occ > int64(c.cfg.WindowSize) {
		fail("window occupancy %d out of range", occ)
	}
	var wantInflightBm, wantCtlBm, unissuedBm uint64
	for p := c.winHead; p < c.winTail; p++ {
		slot := uint32(p) & c.winMask
		e := &c.win[slot]
		bit := uint64(1) << slot
		if got := c.at(e.handle()); got != e {
			fail("live handle %v does not resolve to its entry", e.handle())
		}
		switch {
		case !e.issued:
			unissuedBm |= bit
		case !e.completed:
			wantInflightBm |= bit
			if c.due[slot] != e.completeAt {
				fail("slot %d due %d != completeAt %d", slot, c.due[slot], e.completeAt)
			}
		}
		if e.isCtl && !e.completed {
			wantCtlBm |= bit
		}
		if !e.issued && c.readyBm&bit == 0 {
			// Dropped from the issue scan: must be provably
			// operand-blocked, or the wake that re-arms it can never
			// come and the entry is silently lost.
			blocked := false
			switch {
			case e.isStore:
				blocked = (!e.addrReady && !e.srcsBuf[0].ready) || (e.addrReady && !e.srcsBuf[1].ready)
			case e.isLoad:
				blocked = !e.srcsBuf[0].ready
			default:
				blocked = int(e.nready) < int(e.nsrc)
			}
			if !blocked {
				fail("slot %d dropped from readyBm but not operand-blocked", slot)
			}
		}
		for i := 0; i < int(e.nsrc); i++ {
			s := &e.srcsBuf[i]
			if s.producer == NoHandle {
				continue
			}
			if s.ready {
				fail("slot %d src %d ready but still has a producer", slot, i)
			}
			prod := c.at(s.producer)
			if prod == nil {
				fail("slot %d src %d waits on a squashed producer %v", slot, i, s.producer)
			}
			if prod.seq >= e.seq {
				fail("slot %d src %d producer #%d is not older than consumer #%d", slot, i, prod.seq, e.seq)
			}
		}
	}
	if c.readyBm&^unissuedBm != 0 {
		fail("readyBm %#x contains slots outside the unissued set %#x", c.readyBm, unissuedBm)
	}
	if c.inflightBm != wantInflightBm {
		fail("inflightBm %#x, want %#x", c.inflightBm, wantInflightBm)
	}
	if c.ctlBm != wantCtlBm {
		fail("ctlBm %#x, want %#x", c.ctlBm, wantCtlBm)
	}
	for r, h := range c.rename {
		if h == NoHandle {
			continue
		}
		e := c.at(h)
		if e == nil {
			fail("rename[%d] holds a stale handle %v", r, h)
		}
		if e.dest != isa.Reg(r) {
			fail("rename[%d] resolves to producer of %v", r, e.dest)
		}
	}
	prevSeq := int64(-1)
	for p := c.lsqHead; p < c.lsqTail; p++ {
		e := c.at(c.lsqRing[uint32(p)&c.lsqMask])
		if e == nil {
			fail("LSQ position %d holds a stale handle", p)
		}
		if !e.isLoad && !e.isStore {
			fail("LSQ position %d holds a non-memory entry", p)
		}
		if e.seq <= prevSeq {
			fail("LSQ out of program order at position %d", p)
		}
		prevSeq = e.seq
	}
	// Waiter lists may legitimately hold stale handles (squash leaves
	// them for the generation check to reject), but a live waiter must
	// still be pending on this slot's current occupant: delivery clears
	// the whole list and sets producer to NoHandle, and dispatch
	// truncates the list before re-occupying a slot, so a live entry
	// with no matching pending source means a wake was delivered by the
	// wrong generation.
	for slot := uint32(0); slot <= c.winMask; slot++ {
		for _, wh := range c.waiters[slot] {
			w := c.at(wh)
			if w == nil {
				continue
			}
			myH := c.win[slot].handle()
			found := false
			for i := 0; i < int(w.nsrc); i++ {
				if w.srcsBuf[i].producer == myH && !w.srcsBuf[i].ready {
					found = true
				}
			}
			if !found {
				fail("slot %d waiter list holds live entry #%d with no pending source on the occupant", slot, w.seq)
			}
		}
	}
}

// tortureKernel mixes data-dependent branches, loads, stores and a
// store->load-forwarding pattern, and reports a checksum. Under a
// mispredict storm every conditional fetch direction can be wrong, so
// squash/redirect churn is constant; the checksum and committed count
// must nevertheless match the functional simulator exactly.
const tortureKernel = `
        .data
buf:    .space 16384
        .text
main:   li   $r6, 0
        li   $r4, 12345
        li   $r8, 6
again:  la   $r2, buf
        li   $r1, 200
loop:   lw   $r3, 0($r2)
        add  $r4, $r4, $r3
        xor  $r5, $r4, $r3
        sw   $r5, 0($r2)
        andi $r7, $r4, 3
        bgtz $r7, skip
        addi $r6, $r6, 1
skip:   andi $r7, $r5, 1
        bgtz $r7, odd
        addi $r6, $r6, 2
odd:    addi $r2, $r2, 16
        addi $r1, $r1, -1
        bgtz $r1, loop
        addi $r8, $r8, -1
        bgtz $r8, again
        add  $r6, $r6, $r4
        out  $r6
        halt
`

// TestSquashStormInvariants runs the torture kernel under a permanent
// 70% mispredict-inversion storm, audits every cross-structure handle
// after every cycle, and requires the final architectural output
// bit-identical to the functional simulator. Any stale-generation
// dereference that resolves — rename, LSQ, waiter list, push list or
// queue-wake tag — fails the invariant audit or corrupts the checksum.
// The window sizes cover the superscalar/AP window (64), the CP window
// (16), a tiny ring whose slot bits wrap constantly (4), and a
// non-power-of-two window (48: a 64-slot ring with occupancy capped
// below the ring size).
func TestSquashStormInvariants(t *testing.T) {
	p := mustAssemble(t, "torture", tortureKernel)
	want, err := fnsim.RunProgram(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range []int{64, 16, 4, 48} {
		t.Run(fmt.Sprintf("window%d", ws), func(t *testing.T) {
			inj := simfault.NewInjector(42, simfault.Action{
				Kind: simfault.ActMispredictStorm, Core: "ss", At: 0, Probability: 0.7,
			})
			cfg := Config{Name: "ss", WindowSize: ws,
				ForceMispredict: func(now int64) bool { return inj.StormActive("ss", now) }}
			c, cycles := runCoreChecked(t, tortureKernel, cfg)
			if c.Stats().Squashed == 0 || c.Stats().Mispredicts == 0 {
				t.Fatalf("storm did not storm: %+v", c.Stats())
			}
			if len(c.Output()) != 1 || c.Output()[0] != want.Output[0] {
				t.Errorf("output %v, want %v", c.Output(), want.Output)
			}
			if c.Stats().Committed != want.Insts {
				t.Errorf("committed %d, want %d", c.Stats().Committed, want.Insts)
			}
			t.Logf("torture: %d cycles, %d squashed, %d mispredicts",
				cycles, c.Stats().Squashed, c.Stats().Mispredicts)
		})
	}
}

// runCoreChecked is runCore with the invariant audit after every cycle.
func runCoreChecked(t *testing.T, src string, cfg Config) (*Core, int64) {
	t.Helper()
	p := mustAssemble(t, "t", src)
	m := mem.NewMemory()
	m.LoadSegment(isa.DataBase, p.Data)
	h, err := mem.NewHierarchy(mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.HasMem = true
	c := New(cfg, p, m, h, QueueSet{})
	var cycle int64
	for !c.Halted() {
		if cycle > 10_000_000 {
			t.Fatalf("core did not halt within %d cycles", cycle)
		}
		if err := c.Cycle(cycle); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		checkWindowInvariants(t, c, cycle)
		cycle++
	}
	return c, cycle
}

// TestSquashStormCycleDoesNotAllocate pins the squash-heavy path at
// zero steady-state allocations: with every conditional prediction
// inverted, the window squashes continuously, exercising generation
// bumps, rename rebuilds, queue unclaims and waiter-list truncation.
func TestSquashStormCycleDoesNotAllocate(t *testing.T) {
	inj := simfault.NewInjector(7, simfault.Action{
		Kind: simfault.ActMispredictStorm, Core: "ss", At: 0, Probability: 1,
	})
	cfg := Config{Name: "ss", HasMem: true,
		ForceMispredict: func(now int64) bool { return inj.StormActive("ss", now) }}
	c, cycle := steadyCore(t, allocLoopKernel, cfg, QueueSet{})
	before := c.Stats().Squashed
	const cyclesPerRun = 5_000
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < cyclesPerRun; i++ {
			if err := c.Cycle(cycle); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			cycle++
		}
	})
	if avg != 0 {
		t.Errorf("squash storm: %.2f allocs per %d cycles in steady state, want 0", avg, cyclesPerRun)
	}
	if after := c.Stats().Squashed; after <= before {
		t.Fatalf("no squashes during measurement (before %d, after %d)", before, after)
	}
}
