// Package isa defines the PISA-like instruction set simulated by the
// HiDISC toolchain: a MIPS-flavoured 32-bit integer / 64-bit floating
// point ISA extended with the architectural-queue operands and the
// annotation field used by the HiDISC compiler to tag the computation
// stream, the access stream, and the cache-miss access slices (CMAS).
package isa

import "fmt"

// Reg names an architectural register or one of the architectural
// queues. Integer registers are R0..R31 (R0 is hardwired to zero),
// floating point registers are F0..F31. The queue pseudo-registers
// address the FIFOs that connect the HiDISC processors:
//
//   - RegLDQ: Load Data Queue, Access Processor -> Computation Processor
//   - RegSDQ: Store Data Queue, Computation Processor -> Access Processor
//   - RegCQ:  Control Queue, branch outcomes AP -> CP (generalised EOD token)
//   - RegSCQ: Slip Control Queue, CMP -> AP prefetch throttling credits
//
// Reading a queue register dequeues; writing one enqueues. Queue reads
// happen in program order at dispatch, queue writes in program order at
// commit, preserving FIFO pairing between the streams.
type Reg uint8

const (
	// R0 is the integer zero register; writes to it are discarded.
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	// SP is the conventional stack pointer (alias R29).
	SP
	// FP is the conventional frame pointer (alias R30).
	FP
	// RA is the conventional return-address register (alias R31).
	RA
)

// F0 is the first floating point register; F0..F31 are Reg values 32..63.
const F0 Reg = 32

// Queue pseudo-registers and the "no register" sentinel.
const (
	RegLDQ  Reg = 64 + iota // load data queue (AP -> CP)
	RegSDQ                  // store data queue (CP -> AP)
	RegCQ                   // control queue (AP -> CP branch outcomes)
	RegSCQ                  // slip control queue (CMP -> AP credits)
	RegNone                 // operand not present
)

// NumIntRegs and NumFPRegs size the architectural register files.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
)

// F returns the floating point register with the given index (0..31).
func F(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register index %d out of range", i))
	}
	return F0 + Reg(i)
}

// R returns the integer register with the given index (0..31).
func R(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: int register index %d out of range", i))
	}
	return Reg(i)
}

// IsInt reports whether r is an integer architectural register.
func (r Reg) IsInt() bool { return r < 32 }

// IsFP reports whether r is a floating point architectural register.
func (r Reg) IsFP() bool { return r >= 32 && r < 64 }

// IsQueue reports whether r names an architectural queue.
func (r Reg) IsQueue() bool { return r >= RegLDQ && r <= RegSCQ }

// IsArch reports whether r is a real architectural register (int or FP).
func (r Reg) IsArch() bool { return r < 64 }

// InFile reports whether r is a register of the FP file when fp is set,
// of the integer file otherwise.
func (r Reg) InFile(fp bool) bool {
	if fp {
		return r.IsFP()
	}
	return r.IsInt()
}

// FPIndex returns the register's index in the FP register file.
func (r Reg) FPIndex() int { return int(r - F0) }

// String returns the assembler spelling of the register.
func (r Reg) String() string {
	switch {
	case r.IsInt():
		switch r {
		case SP:
			return "$sp"
		case FP:
			return "$fp"
		case RA:
			return "$ra"
		}
		return fmt.Sprintf("$r%d", int(r))
	case r.IsFP():
		return fmt.Sprintf("$f%d", r.FPIndex())
	case r == RegLDQ:
		return "$LDQ"
	case r == RegSDQ:
		return "$SDQ"
	case r == RegCQ:
		return "$CQ"
	case r == RegSCQ:
		return "$SCQ"
	case r == RegNone:
		return "$-"
	}
	return fmt.Sprintf("$?%d", uint8(r))
}
