package isa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Memory layout conventions shared by the assembler and the simulators.
const (
	// DataBase is the lowest address of the static data segment.
	DataBase uint32 = 0x1000_0000
	// StackTop is the initial stack pointer; the stack grows downward.
	StackTop uint32 = 0x7FFF_FF00
)

// Program is an assembled (or compiler-separated) instruction stream
// plus its static data image. PCs are instruction indices; the entry
// point is index Entry.
//
// Data is read-only once the program is built (by the assembler or
// ReadBinary): Clone and the stream separator share it rather than copy
// it, and every simulation copies it into its own memory.
type Program struct {
	Name    string
	Insts   []Inst
	Entry   int
	Data    []byte            // initial contents of [DataBase, DataBase+len); read-only, shared
	Symbols map[string]uint32 // data labels -> addresses (debugging)
	Labels  map[string]int    // code labels -> instruction indices (debugging)
}

// Validate checks structural sanity: control targets in range, register
// encodings valid, entry in range. It does not check queue usage (that
// depends on machine configuration).
func (p *Program) Validate() error {
	n := len(p.Insts)
	if n == 0 {
		return fmt.Errorf("program %q: empty", p.Name)
	}
	if p.Entry < 0 || p.Entry >= n {
		return fmt.Errorf("program %q: entry %d out of range [0,%d)", p.Name, p.Entry, n)
	}
	for i, in := range p.Insts {
		if in.Op >= numOps {
			return fmt.Errorf("program %q: inst %d: invalid opcode %d", p.Name, i, in.Op)
		}
		if in.Op.IsDirectControl() {
			t := in.Target()
			if t < 0 || t >= n {
				return fmt.Errorf("program %q: inst %d (%v): target %d out of range", p.Name, i, in, t)
			}
		}
	}
	return nil
}

// Listing renders a human-readable disassembly listing with labels.
func (p *Program) Listing() string {
	byIdx := make(map[int][]string)
	for name, idx := range p.Labels {
		byIdx[idx] = append(byIdx[idx], name)
	}
	for _, names := range byIdx {
		sort.Strings(names)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "; program %q: %d instructions, %d data bytes, entry %d\n",
		p.Name, len(p.Insts), len(p.Data), p.Entry)
	for i, in := range p.Insts {
		for _, name := range byIdx[i] {
			fmt.Fprintf(&buf, "%s:\n", name)
		}
		fmt.Fprintf(&buf, "%6d: %s\n", i, in)
	}
	return buf.String()
}

// Clone returns a copy of the program whose instructions, labels and
// symbols are its own; the read-only data image is shared.
func (p *Program) Clone() *Program {
	q := &Program{
		Name:  p.Name,
		Entry: p.Entry,
		Insts: append([]Inst(nil), p.Insts...),
		Data:  p.Data,
	}
	if p.Symbols != nil {
		q.Symbols = make(map[string]uint32, len(p.Symbols))
		for k, v := range p.Symbols {
			q.Symbols[k] = v
		}
	}
	if p.Labels != nil {
		q.Labels = make(map[string]int, len(p.Labels))
		for k, v := range p.Labels {
			q.Labels[k] = v
		}
	}
	return q
}

const binaryMagic = 0x48644953 // "HdIS"

// WriteBinary serialises the program in the toolchain's binary format:
// a header, the encoded instruction words (with annotation fields), and
// the data image. Symbols and labels are included so that the stream
// separator can produce readable reports.
func (p *Program) WriteBinary(w io.Writer) error {
	var buf bytes.Buffer
	le := binary.LittleEndian
	writeU32 := func(v uint32) { _ = binary.Write(&buf, le, v) }
	writeStr := func(s string) {
		writeU32(uint32(len(s)))
		buf.WriteString(s)
	}
	writeU32(binaryMagic)
	writeStr(p.Name)
	writeU32(uint32(p.Entry))
	writeU32(uint32(len(p.Insts)))
	for _, in := range p.Insts {
		wd := in.Encode()
		writeU32(wd.Raw)
		writeU32(uint32(wd.Imm))
		writeU32(wd.Ann)
	}
	writeU32(uint32(len(p.Data)))
	buf.Write(p.Data)
	writeU32(uint32(len(p.Symbols)))
	for _, name := range sortedKeys(p.Symbols) {
		writeStr(name)
		writeU32(p.Symbols[name])
	}
	writeU32(uint32(len(p.Labels)))
	for _, name := range sortedKeysInt(p.Labels) {
		writeStr(name)
		writeU32(uint32(p.Labels[name]))
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// ReadBinary deserialises a program written by WriteBinary.
func ReadBinary(r io.Reader) (*Program, error) {
	all, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	b := bytes.NewReader(all)
	le := binary.LittleEndian
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(b, le, &v)
		return v, err
	}
	readStr := func() (string, error) {
		n, err := readU32()
		if err != nil {
			return "", err
		}
		s := make([]byte, n)
		if _, err := io.ReadFull(b, s); err != nil {
			return "", err
		}
		return string(s), nil
	}
	magic, err := readU32()
	if err != nil {
		return nil, err
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("isa: bad magic %#x", magic)
	}
	p := &Program{}
	if p.Name, err = readStr(); err != nil {
		return nil, err
	}
	entry, err := readU32()
	if err != nil {
		return nil, err
	}
	p.Entry = int(entry)
	nInsts, err := readU32()
	if err != nil {
		return nil, err
	}
	p.Insts = make([]Inst, nInsts)
	for i := range p.Insts {
		raw, err := readU32()
		if err != nil {
			return nil, err
		}
		imm, err := readU32()
		if err != nil {
			return nil, err
		}
		ann, err := readU32()
		if err != nil {
			return nil, err
		}
		in, err := Decode(Word{Raw: raw, Imm: int32(imm), Ann: ann})
		if err != nil {
			return nil, fmt.Errorf("isa: inst %d: %w", i, err)
		}
		p.Insts[i] = in
	}
	nData, err := readU32()
	if err != nil {
		return nil, err
	}
	p.Data = make([]byte, nData)
	if _, err := io.ReadFull(b, p.Data); err != nil {
		return nil, err
	}
	nSyms, err := readU32()
	if err != nil {
		return nil, err
	}
	p.Symbols = make(map[string]uint32, nSyms)
	for i := uint32(0); i < nSyms; i++ {
		name, err := readStr()
		if err != nil {
			return nil, err
		}
		addr, err := readU32()
		if err != nil {
			return nil, err
		}
		p.Symbols[name] = addr
	}
	nLabels, err := readU32()
	if err != nil {
		return nil, err
	}
	p.Labels = make(map[string]int, nLabels)
	for i := uint32(0); i < nLabels; i++ {
		name, err := readStr()
		if err != nil {
			return nil, err
		}
		idx, err := readU32()
		if err != nil {
			return nil, err
		}
		p.Labels[name] = int(idx)
	}
	return p, p.Validate()
}

func sortedKeys(m map[string]uint32) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedKeysInt(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
