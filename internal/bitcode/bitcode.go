// Package bitcode implements the binary on-disk representation of LLHD
// modules. The paper (§2, §6.3) plans a bitcode format and estimates its
// size with "run-length encoding for numbers, interning of strings and
// types, compact encodings for frequently-used primitive types and value
// references"; this package implements exactly that: a type table, a
// string table, varint-encoded instruction streams, and local value
// references by index. Table 4's "Bitcode" column is measured, not
// estimated, against this encoder.
package bitcode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"llhd/internal/ir"
	"llhd/internal/logic"
)

// magic identifies LLHD bitcode files ("LLHD" + version 2; version 2
// added the logic-constant payload to instruction records).
var magic = []byte{'L', 'L', 'H', 'D', 2}

// Encode serializes the module.
func Encode(m *ir.Module) ([]byte, error) {
	e := &encoder{
		types:   map[*ir.Type]int{},
		strings: map[string]int{},
	}
	var body bytes.Buffer
	e.uvarint(&body, uint64(len(m.Units)))
	for _, u := range m.Units {
		if err := e.unit(&body, u); err != nil {
			return nil, err
		}
	}

	var out bytes.Buffer
	out.Write(magic)
	e.uvarint(&out, uint64(len(e.stringList)))
	for _, s := range e.stringList {
		e.uvarint(&out, uint64(len(s)))
		out.WriteString(s)
	}
	e.uvarint(&out, uint64(len(e.typeList)))
	for _, t := range e.typeList {
		e.typeDef(&out, t)
	}
	e.uvarint(&out, uint64(len(m.Name)))
	out.WriteString(m.Name)
	out.Write(body.Bytes())
	return out.Bytes(), nil
}

type encoder struct {
	types      map[*ir.Type]int
	typeList   []*ir.Type
	strings    map[string]int
	stringList []string
}

func (e *encoder) uvarint(w *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func (e *encoder) str(s string) int {
	if i, ok := e.strings[s]; ok {
		return i
	}
	i := len(e.stringList)
	e.strings[s] = i
	e.stringList = append(e.stringList, s)
	return i
}

// typeRef interns a type (recursively) and returns its table index.
func (e *encoder) typeRef(t *ir.Type) int {
	if i, ok := e.types[t]; ok {
		return i
	}
	// Intern children first so definitions only reference earlier rows.
	if t.Elem != nil {
		e.typeRef(t.Elem)
	}
	for _, f := range t.Fields {
		e.typeRef(f)
	}
	i := len(e.typeList)
	e.types[t] = i
	e.typeList = append(e.typeList, t)
	return i
}

// typeDef writes one type table row.
func (e *encoder) typeDef(w *bytes.Buffer, t *ir.Type) {
	w.WriteByte(byte(t.Kind))
	switch t.Kind {
	case ir.IntKind, ir.EnumKind, ir.LogicKind:
		e.uvarint(w, uint64(t.Width))
	case ir.PointerKind, ir.SignalKind:
		e.uvarint(w, uint64(e.types[t.Elem]))
	case ir.ArrayKind:
		e.uvarint(w, uint64(t.Width))
		e.uvarint(w, uint64(e.types[t.Elem]))
	case ir.StructKind:
		e.uvarint(w, uint64(len(t.Fields)))
		for _, f := range t.Fields {
			e.uvarint(w, uint64(e.types[f]))
		}
	case ir.FuncKind:
		e.uvarint(w, uint64(e.types[t.Elem]))
		e.uvarint(w, uint64(len(t.Fields)))
		for _, f := range t.Fields {
			e.uvarint(w, uint64(e.types[f]))
		}
	}
}

// unit writes one unit: signature, blocks, and the instruction stream with
// local value references by dense index.
func (e *encoder) unit(w *bytes.Buffer, u *ir.Unit) error {
	w.WriteByte(byte(u.Kind))
	e.uvarint(w, uint64(e.str(u.Name)))
	e.uvarint(w, uint64(len(u.Inputs)))
	for _, a := range u.Inputs {
		e.uvarint(w, uint64(e.str(a.ValueName())))
		e.uvarint(w, uint64(e.typeRef(a.Type())))
	}
	e.uvarint(w, uint64(len(u.Outputs)))
	for _, a := range u.Outputs {
		e.uvarint(w, uint64(e.str(a.ValueName())))
		e.uvarint(w, uint64(e.typeRef(a.Type())))
	}
	e.uvarint(w, uint64(e.typeRef(u.RetType)))

	// Dense value numbering: inputs, outputs, then instruction results.
	valueIdx := map[ir.Value]int{}
	next := 0
	for _, a := range u.Inputs {
		valueIdx[a] = next
		next++
	}
	for _, a := range u.Outputs {
		valueIdx[a] = next
		next++
	}
	blockIdx := map[*ir.Block]int{}
	for i, b := range u.Blocks {
		blockIdx[b] = i
	}
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		valueIdx[in] = next
		next++
	})

	ref := func(v ir.Value) (uint64, error) {
		if i, ok := valueIdx[v]; ok {
			return uint64(i), nil
		}
		return 0, fmt.Errorf("bitcode: operand %s not local to @%s", v, u.Name)
	}

	e.uvarint(w, uint64(len(u.Blocks)))
	for _, b := range u.Blocks {
		e.uvarint(w, uint64(e.str(b.ValueName())))
		e.uvarint(w, uint64(len(b.Insts)))
		for _, in := range b.Insts {
			w.WriteByte(byte(in.Op))
			e.uvarint(w, uint64(e.typeRef(in.Ty)))
			e.uvarint(w, uint64(e.str(in.ValueName())))
			e.uvarint(w, in.IVal)
			e.uvarint(w, uint64(in.TVal.Fs))
			e.uvarint(w, uint64(in.TVal.Delta))
			e.uvarint(w, uint64(in.TVal.Eps))
			e.uvarint(w, uint64(int64(in.Imm0)))
			e.uvarint(w, uint64(int64(in.Imm1)))
			e.uvarint(w, uint64(e.str(in.Callee)))
			e.uvarint(w, uint64(in.NumIns))
			e.uvarint(w, uint64(len(in.LVal)))
			for _, lx := range in.LVal {
				w.WriteByte(byte(lx))
			}

			e.uvarint(w, uint64(len(in.Args)))
			for _, a := range in.Args {
				r, err := ref(a)
				if err != nil {
					return err
				}
				e.uvarint(w, r)
			}
			e.uvarint(w, uint64(len(in.Dests)))
			for _, d := range in.Dests {
				e.uvarint(w, uint64(blockIdx[d]))
			}
			if in.TimeArg != nil {
				w.WriteByte(1)
				r, err := ref(in.TimeArg)
				if err != nil {
					return err
				}
				e.uvarint(w, r)
			} else {
				w.WriteByte(0)
			}
			if in.Delay != nil {
				w.WriteByte(1)
				r, err := ref(in.Delay)
				if err != nil {
					return err
				}
				e.uvarint(w, r)
			} else {
				w.WriteByte(0)
			}
			e.uvarint(w, uint64(len(in.Triggers)))
			for _, tr := range in.Triggers {
				w.WriteByte(byte(tr.Mode))
				rv, err := ref(tr.Value)
				if err != nil {
					return err
				}
				e.uvarint(w, rv)
				rt, err := ref(tr.Trigger)
				if err != nil {
					return err
				}
				e.uvarint(w, rt)
				if tr.Gate != nil {
					w.WriteByte(1)
					rg, err := ref(tr.Gate)
					if err != nil {
						return err
					}
					e.uvarint(w, rg)
				} else {
					w.WriteByte(0)
				}
			}
		}
	}
	return nil
}

// Decode deserializes a module encoded by Encode.
func Decode(data []byte) (*ir.Module, error) {
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic) {
		return nil, fmt.Errorf("bitcode: bad magic")
	}
	d := &decoder{buf: bytes.NewBuffer(data[len(magic):])}

	nstr, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nstr; i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		d.strings = append(d.strings, s)
	}
	ntypes, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < ntypes; i++ {
		t, err := d.typeDef()
		if err != nil {
			return nil, err
		}
		d.types = append(d.types, t)
	}
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	m := ir.NewModule(name)
	nunits, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nunits; i++ {
		u, err := d.unit()
		if err != nil {
			return nil, err
		}
		if err := m.Add(u); err != nil {
			return nil, err
		}
	}
	return m, nil
}

type decoder struct {
	buf     *bytes.Buffer
	strings []string
	types   []*ir.Type
}

func (d *decoder) uvarint() (uint64, error) {
	return binary.ReadUvarint(d.buf)
}

// count reads an element count. Every element takes at least one byte, so
// a count beyond the remaining input is corrupt: rejecting it here keeps
// damaged input from sizing allocations.
func (d *decoder) count() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.buf.Len()) {
		return 0, fmt.Errorf("bitcode: count %d exceeds the %d remaining bytes", n, d.buf.Len())
	}
	return int(n), nil
}

// width reads a type width or array length, rejecting values no valid
// design reaches (and that would overflow int on conversion).
func (d *decoder) width() (int, error) {
	w, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if w > math.MaxInt32 {
		return 0, fmt.Errorf("bitcode: type width %d out of range", w)
	}
	return int(w), nil
}

func (d *decoder) str() (string, error) {
	n, err := d.count()
	if err != nil {
		return "", err
	}
	return string(d.buf.Next(n)), nil
}

func (d *decoder) strRef() (string, error) {
	i, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if i >= uint64(len(d.strings)) {
		return "", fmt.Errorf("bitcode: string index %d out of range", i)
	}
	return d.strings[i], nil
}

func (d *decoder) typeRef() (*ir.Type, error) {
	i, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if i >= uint64(len(d.types)) {
		return nil, fmt.Errorf("bitcode: type index %d out of range", i)
	}
	return d.types[i], nil
}

func (d *decoder) typeDef() (*ir.Type, error) {
	kindByte, err := d.buf.ReadByte()
	if err != nil {
		return nil, err
	}
	kind := ir.TypeKind(kindByte)
	switch kind {
	case ir.VoidKind:
		return ir.VoidType(), nil
	case ir.TimeKind:
		return ir.TimeType(), nil
	case ir.IntKind, ir.EnumKind, ir.LogicKind:
		w, err := d.width()
		if err != nil {
			return nil, err
		}
		if w == 0 {
			return nil, fmt.Errorf("bitcode: zero-width type of kind %d", kind)
		}
		switch kind {
		case ir.IntKind:
			return ir.IntType(w), nil
		case ir.EnumKind:
			return ir.EnumType(w), nil
		default:
			return ir.LogicType(w), nil
		}
	case ir.PointerKind, ir.SignalKind:
		elem, err := d.typeRef()
		if err != nil {
			return nil, err
		}
		if kind == ir.PointerKind {
			return ir.PointerType(elem), nil
		}
		return ir.SignalType(elem), nil
	case ir.ArrayKind:
		n, err := d.width()
		if err != nil {
			return nil, err
		}
		elem, err := d.typeRef()
		if err != nil {
			return nil, err
		}
		return ir.ArrayType(n, elem), nil
	case ir.StructKind:
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		fields := make([]*ir.Type, n)
		for i := range fields {
			f, err := d.typeRef()
			if err != nil {
				return nil, err
			}
			fields[i] = f
		}
		return ir.StructType(fields...), nil
	case ir.FuncKind:
		ret, err := d.typeRef()
		if err != nil {
			return nil, err
		}
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		params := make([]*ir.Type, n)
		for i := range params {
			f, err := d.typeRef()
			if err != nil {
				return nil, err
			}
			params[i] = f
		}
		return ir.FuncType(ret, params...), nil
	}
	return nil, fmt.Errorf("bitcode: unknown type kind %d", kind)
}

func (d *decoder) unit() (*ir.Unit, error) {
	kindByte, err := d.buf.ReadByte()
	if err != nil {
		return nil, err
	}
	name, err := d.strRef()
	if err != nil {
		return nil, err
	}
	u := &ir.Unit{Kind: ir.UnitKind(kindByte), Name: name, RetType: ir.VoidType()}

	var values []ir.Value
	nin, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nin; i++ {
		an, err := d.strRef()
		if err != nil {
			return nil, err
		}
		at, err := d.typeRef()
		if err != nil {
			return nil, err
		}
		values = append(values, u.AddInput(an, at))
	}
	nout, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nout; i++ {
		an, err := d.strRef()
		if err != nil {
			return nil, err
		}
		at, err := d.typeRef()
		if err != nil {
			return nil, err
		}
		values = append(values, u.AddOutput(an, at))
	}
	if u.RetType, err = d.typeRef(); err != nil {
		return nil, err
	}

	nblocks, err := d.count()
	if err != nil {
		return nil, err
	}
	type pendingRefs struct {
		in      *ir.Inst
		args    []uint64
		dests   []uint64
		timeArg *uint64
		delay   *uint64
		trigs   [][3]uint64 // value, trigger, gate (gate may be ^0)
		modes   []ir.RegMode
	}
	var pending []pendingRefs
	var blocks []*ir.Block
	// First pass: blocks must exist before branches reference them, so
	// read block headers and instruction payloads in one sweep, creating
	// blocks lazily in order.
	for bi := 0; bi < nblocks; bi++ {
		bn, err := d.strRef()
		if err != nil {
			return nil, err
		}
		b := u.AddBlock(bn)
		blocks = append(blocks, b)
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		for ii := 0; ii < n; ii++ {
			in, refs, err := d.inst()
			if err != nil {
				return nil, err
			}
			b.Append(in)
			values = append(values, in)
			refs.in = in
			pending = append(pending, *refs)
		}
	}
	// Second pass: resolve value and block references.
	value := func(r uint64) (ir.Value, error) {
		if r >= uint64(len(values)) {
			return nil, fmt.Errorf("bitcode: value ref %d out of range", r)
		}
		return values[r], nil
	}
	for _, p := range pending {
		in := p.in
		for _, r := range p.args {
			v, err := value(r)
			if err != nil {
				return nil, err
			}
			in.Args = append(in.Args, v)
		}
		for _, r := range p.dests {
			if r >= uint64(len(blocks)) {
				return nil, fmt.Errorf("bitcode: block ref %d out of range", r)
			}
			in.Dests = append(in.Dests, blocks[r])
		}
		if p.timeArg != nil {
			if in.TimeArg, err = value(*p.timeArg); err != nil {
				return nil, err
			}
		}
		if p.delay != nil {
			if in.Delay, err = value(*p.delay); err != nil {
				return nil, err
			}
		}
		for i, tr := range p.trigs {
			t := ir.RegTrigger{Mode: p.modes[i]}
			if t.Value, err = value(tr[0]); err != nil {
				return nil, err
			}
			if t.Trigger, err = value(tr[1]); err != nil {
				return nil, err
			}
			if tr[2] != ^uint64(0) {
				if t.Gate, err = value(tr[2]); err != nil {
					return nil, err
				}
			}
			in.Triggers = append(in.Triggers, t)
		}
	}
	return u, nil
}

// inst reads one instruction payload, deferring reference resolution.
func (d *decoder) inst() (*ir.Inst, *struct {
	in      *ir.Inst
	args    []uint64
	dests   []uint64
	timeArg *uint64
	delay   *uint64
	trigs   [][3]uint64
	modes   []ir.RegMode
}, error) {
	refs := &struct {
		in      *ir.Inst
		args    []uint64
		dests   []uint64
		timeArg *uint64
		delay   *uint64
		trigs   [][3]uint64
		modes   []ir.RegMode
	}{}
	opByte, err := d.buf.ReadByte()
	if err != nil {
		return nil, nil, err
	}
	in := &ir.Inst{Op: ir.Opcode(opByte)}
	if in.Ty, err = d.typeRef(); err != nil {
		return nil, nil, err
	}
	name, err := d.strRef()
	if err != nil {
		return nil, nil, err
	}
	in.SetName(name)
	if in.IVal, err = d.uvarint(); err != nil {
		return nil, nil, err
	}
	fs, err := d.uvarint()
	if err != nil {
		return nil, nil, err
	}
	delta, err := d.uvarint()
	if err != nil {
		return nil, nil, err
	}
	eps, err := d.uvarint()
	if err != nil {
		return nil, nil, err
	}
	in.TVal = ir.Time{Fs: int64(fs), Delta: int(delta), Eps: int(eps)}
	imm0, err := d.uvarint()
	if err != nil {
		return nil, nil, err
	}
	imm1, err := d.uvarint()
	if err != nil {
		return nil, nil, err
	}
	in.Imm0, in.Imm1 = int(int64(imm0)), int(int64(imm1))
	if in.Callee, err = d.strRef(); err != nil {
		return nil, nil, err
	}
	numIns, err := d.uvarint()
	if err != nil {
		return nil, nil, err
	}
	in.NumIns = int(numIns)
	nlogic, err := d.count()
	if err != nil {
		return nil, nil, err
	}
	if nlogic > 0 {
		in.LVal = make(logic.Vector, nlogic)
		for i := 0; i < nlogic; i++ {
			lb, err := d.buf.ReadByte()
			if err != nil {
				return nil, nil, err
			}
			in.LVal[i] = logic.Value(lb)
		}
	}

	nargs, err := d.count()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < nargs; i++ {
		r, err := d.uvarint()
		if err != nil {
			return nil, nil, err
		}
		refs.args = append(refs.args, r)
	}
	ndests, err := d.count()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < ndests; i++ {
		r, err := d.uvarint()
		if err != nil {
			return nil, nil, err
		}
		refs.dests = append(refs.dests, r)
	}
	hasTime, err := d.buf.ReadByte()
	if err != nil {
		return nil, nil, err
	}
	if hasTime == 1 {
		r, err := d.uvarint()
		if err != nil {
			return nil, nil, err
		}
		refs.timeArg = &r
	}
	hasDelay, err := d.buf.ReadByte()
	if err != nil {
		return nil, nil, err
	}
	if hasDelay == 1 {
		r, err := d.uvarint()
		if err != nil {
			return nil, nil, err
		}
		refs.delay = &r
	}
	ntrig, err := d.count()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < ntrig; i++ {
		modeByte, err := d.buf.ReadByte()
		if err != nil {
			return nil, nil, err
		}
		rv, err := d.uvarint()
		if err != nil {
			return nil, nil, err
		}
		rt, err := d.uvarint()
		if err != nil {
			return nil, nil, err
		}
		gate := ^uint64(0)
		hasGate, err := d.buf.ReadByte()
		if err != nil {
			return nil, nil, err
		}
		if hasGate == 1 {
			if gate, err = d.uvarint(); err != nil {
				return nil, nil, err
			}
		}
		refs.modes = append(refs.modes, ir.RegMode(modeByte))
		refs.trigs = append(refs.trigs, [3]uint64{rv, rt, gate})
	}
	return in, refs, nil
}
