package isa

import (
	"fmt"
	"strings"
)

// Stream identifies which HiDISC instruction stream an instruction
// belongs to after stream separation.
type Stream uint8

// Stream values stored in the annotation field.
const (
	StreamNone    Stream = iota // sequential binary, not yet separated
	StreamCompute               // computation stream (CP)
	StreamAccess                // access stream (AP)
	StreamCMAS                  // cache-miss access slice (CMP)
)

// String names the stream.
func (s Stream) String() string {
	switch s {
	case StreamNone:
		return "seq"
	case StreamCompute:
		return "CS"
	case StreamAccess:
		return "AS"
	case StreamCMAS:
		return "CMAS"
	}
	return "stream?"
}

// Annotation is the per-instruction annotation field the HiDISC
// compiler writes into the binary (the paper stores it in the unused
// annotation field of SimpleScalar's PISA encoding). It records the
// stream, queue-communication taps, and CMAS trigger information.
type Annotation uint32

// Annotation flag bits.
const (
	// AnnTapLDQ marks an Access Stream instruction whose result is also
	// enqueued on the Load Data Queue at commit (value flows AS -> CS).
	AnnTapLDQ Annotation = 1 << (2 + iota)
	// AnnTapSDQ marks a Computation Stream instruction whose result is
	// also enqueued on the Store Data Queue at commit (CS -> AS).
	AnnTapSDQ
	// AnnPushCQ marks an Access Stream control instruction whose
	// outcome (taken/not-taken, or the target index for indirect jumps)
	// is enqueued on the Control Queue at commit.
	AnnPushCQ
	// AnnTrigger marks an Access Stream instruction whose dispatch
	// forks the CMAS thread identified by CMASID on the CMP.
	AnnTrigger
	// AnnConsumeSCQ marks an instruction that consumes one slip-control
	// credit non-blockingly at commit. Used in the CP+CMP configuration
	// where the single stream must not stall on the prefetcher.
	AnnConsumeSCQ
)

const (
	annStreamMask Annotation = 0x3
	annIDShift               = 16
)

// Stream extracts the stream tag.
func (a Annotation) Stream() Stream { return Stream(a & annStreamMask) }

// WithStream returns the annotation with the stream tag replaced.
func (a Annotation) WithStream(s Stream) Annotation {
	return (a &^ annStreamMask) | Annotation(s)
}

// Has reports whether flag is set.
func (a Annotation) Has(flag Annotation) bool { return a&flag != 0 }

// CMASID extracts the CMAS identifier for trigger/SCQ annotations.
func (a Annotation) CMASID() int { return int(a >> annIDShift) }

// WithCMASID returns the annotation with the CMAS identifier replaced.
func (a Annotation) WithCMASID(id int) Annotation {
	return (a & 0xFFFF) | Annotation(id)<<annIDShift
}

// String renders the annotation compactly, e.g. "[AS tapLDQ trig#2]".
func (a Annotation) String() string {
	if a == 0 {
		return ""
	}
	var parts []string
	if a.Stream() != StreamNone {
		parts = append(parts, a.Stream().String())
	}
	if a.Has(AnnTapLDQ) {
		parts = append(parts, "tapLDQ")
	}
	if a.Has(AnnTapSDQ) {
		parts = append(parts, "tapSDQ")
	}
	if a.Has(AnnPushCQ) {
		parts = append(parts, "pushCQ")
	}
	if a.Has(AnnTrigger) {
		parts = append(parts, fmt.Sprintf("trig#%d", a.CMASID()))
	}
	if a.Has(AnnConsumeSCQ) {
		parts = append(parts, fmt.Sprintf("scq#%d", a.CMASID()))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Inst is one decoded instruction. Control-flow targets are absolute
// instruction indices held in Imm. Memory operands address bytes:
// effective address = intReg(Rs) + Imm.
type Inst struct {
	Op  Op
	Rd  Reg // destination (or stored-value register for FmtMemS rendering)
	Rs  Reg // first source / base address
	Rt  Reg // second source / stored value
	Imm int32
	Ann Annotation
}

// Word is the binary encoding of one instruction: opcode and register
// operands packed in Raw, the immediate in Imm, and the HiDISC
// annotation field in Ann.
type Word struct {
	Raw uint32
	Imm int32
	Ann uint32
}

// Encode packs the instruction into its binary form.
func (in Inst) Encode() Word {
	raw := uint32(in.Op) | uint32(in.Rd)<<8 | uint32(in.Rs)<<16 | uint32(in.Rt)<<24
	return Word{Raw: raw, Imm: in.Imm, Ann: uint32(in.Ann)}
}

// Decode unpacks a binary instruction word.
func Decode(w Word) (Inst, error) {
	op := Op(w.Raw & 0xFF)
	if op >= numOps {
		return Inst{}, fmt.Errorf("isa: invalid opcode %d", uint32(op))
	}
	in := Inst{
		Op:  op,
		Rd:  Reg(w.Raw >> 8),
		Rs:  Reg(w.Raw >> 16),
		Rt:  Reg(w.Raw >> 24),
		Imm: w.Imm,
		Ann: Annotation(w.Ann),
	}
	for _, r := range [...]Reg{in.Rd, in.Rs, in.Rt} {
		if r > RegNone {
			return Inst{}, fmt.Errorf("isa: invalid register %d in %v", uint8(r), op)
		}
	}
	return in, nil
}

// MaxSources is the largest number of source operands any instruction
// reads (SourceList's array size).
const MaxSources = 3

// SourceList returns the registers (or queues) the instruction reads,
// in operand order, without allocating: the first n entries of the
// returned array are valid. Queue sources are dequeued in exactly this
// order. The simulators' per-cycle hot paths use this form.
func (in Inst) SourceList() (src [MaxSources]Reg, n int) {
	if in.Op.ReadsRs() && in.Rs != RegNone {
		src[n] = in.Rs
		n++
	}
	if in.Op.ReadsRt() && in.Rt != RegNone {
		src[n] = in.Rt
		n++
	}
	if in.Op == BCQ || in.Op == JCQ {
		src[n] = RegCQ
		n++
	}
	return src, n
}

// Sources returns the registers (or queues) the instruction reads, in
// operand order. Queue sources are dequeued in exactly this order.
// Analysis passes use this convenient form; the cycle simulators use
// the allocation-free SourceList.
func (in Inst) Sources() []Reg {
	src, n := in.SourceList()
	if n == 0 {
		return nil
	}
	return src[:n:n]
}

// Dest returns the written register, or RegNone. JAL implicitly writes RA.
func (in Inst) Dest() Reg {
	if !in.Op.WritesRd() {
		return RegNone
	}
	if in.Op == JAL {
		return RA
	}
	return in.Rd
}

// Target returns the direct control-transfer target (instruction index)
// for direct branches and jumps.
func (in Inst) Target() int { return int(in.Imm) }

// String disassembles the instruction, including its annotation.
func (in Inst) String() string {
	s := in.disasm()
	if ann := in.Ann.String(); ann != "" {
		s += " " + ann
	}
	return s
}

func (in Inst) disasm() string {
	name := in.Op.Name()
	switch in.Op.Format() {
	case FmtNone:
		return name
	case FmtR3:
		return fmt.Sprintf("%s %s, %s, %s", name, in.Rd, in.Rs, in.Rt)
	case FmtR2I:
		return fmt.Sprintf("%s %s, %s, %d", name, in.Rd, in.Rs, in.Imm)
	case FmtRI:
		return fmt.Sprintf("%s %s, %d", name, in.Rd, in.Imm)
	case FmtR2:
		return fmt.Sprintf("%s %s, %s", name, in.Rd, in.Rs)
	case FmtMemL:
		if in.Op == PREF {
			return fmt.Sprintf("%s %d(%s)", name, in.Imm, in.Rs)
		}
		return fmt.Sprintf("%s %s, %d(%s)", name, in.Rd, in.Imm, in.Rs)
	case FmtMemS:
		return fmt.Sprintf("%s %s, %d(%s)", name, in.Rt, in.Imm, in.Rs)
	case FmtB2:
		return fmt.Sprintf("%s %s, %s, %d", name, in.Rs, in.Rt, in.Imm)
	case FmtB1:
		return fmt.Sprintf("%s %s, %d", name, in.Rs, in.Imm)
	case FmtB0:
		return fmt.Sprintf("%s %d", name, in.Imm)
	case FmtR1:
		return fmt.Sprintf("%s %s", name, in.Rs)
	case FmtI:
		return fmt.Sprintf("%s %d", name, in.Imm)
	}
	return name
}
