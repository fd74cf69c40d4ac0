package codegen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/value"
	"repro/models"
)

// The differential gate of fusion: for every registered model, for
// fuzz-generated instruction sequences, and for budgeted slices landing on
// every interior boundary of every superinstruction shape, a body carrying
// Compile's fuse marks and a copy with the marks cleared must agree
// bit-for-bit — ExecResult (cycles, steps, check cycles, emits, BreakPC),
// bus state, PC, stack depth and error text.

// marked returns a copy of code with every superinstruction site marked.
func marked(code []Instr) []Instr {
	c := slices.Clone(code)
	markFused(c)
	return c
}

// cleared returns a copy of code with every fuse mark removed.
func cleared(code []Instr) []Instr {
	c := slices.Clone(code)
	for i := range c {
		c[i].Fuse = FuseNone
	}
	return c
}

func hasMarks(code []Instr) bool {
	for _, in := range code {
		if in.Fuse != FuseNone {
			return true
		}
	}
	return false
}

// compareRuns checks the plain (pm) and fused (fm) machines after runs
// that returned perr and ferr.
func compareRuns(t *testing.T, tag string, pm, fm *Machine, perr, ferr error, pb, fb *MapBus) {
	t.Helper()
	if (perr == nil) != (ferr == nil) || (perr != nil && perr.Error() != ferr.Error()) {
		t.Fatalf("%s: plain err = %v, fused err = %v", tag, perr, ferr)
	}
	pr, fr := pm.Res, fm.Res
	if pr.Cycles != fr.Cycles || pr.Steps != fr.Steps ||
		pr.CheckCycles != fr.CheckCycles || pr.BreakPC != fr.BreakPC {
		t.Fatalf("%s: plain result %+v, fused result %+v", tag, pr, fr)
	}
	if len(pr.Emits) != len(fr.Emits) {
		t.Fatalf("%s: plain %d emits, fused %d", tag, len(pr.Emits), len(fr.Emits))
	}
	for i := range pr.Emits {
		pe, fe := pr.Emits[i], fr.Emits[i]
		if pe.Template != fe.Template || pe.HasValue != fe.HasValue ||
			(pe.HasValue && !value.Equal(pe.Value, fe.Value)) {
			t.Fatalf("%s: emit %d: plain %+v, fused %+v", tag, i, pe, fe)
		}
	}
	if pm.PC != fm.PC || pm.Done() != fm.Done() || len(pm.stack) != len(fm.stack) {
		t.Fatalf("%s: plain PC=%d done=%v depth=%d, fused PC=%d done=%v depth=%d",
			tag, pm.PC, pm.Done(), len(pm.stack), fm.PC, fm.Done(), len(fm.stack))
	}
	for i := range pb.Vals {
		if pb.Vals[i].Kind() != fb.Vals[i].Kind() || !value.Equal(pb.Vals[i], fb.Vals[i]) {
			t.Fatalf("%s: symbol %s: plain %v, fused %v",
				tag, pb.Table.Sym(i).Name, pb.Vals[i], fb.Vals[i])
		}
	}
}

// TestFusedMatchesPlainAllModels runs every unit of every registered model
// — init and several body releases, clean and fully instrumented — as
// compiled (marked) and with the marks cleared, and requires identical
// results.
func TestFusedMatchesPlainAllModels(t *testing.T) {
	for _, name := range models.Names() {
		for _, instr := range []Instrument{{}, {StateEnter: true, Transitions: true, Signals: true, TaskEvents: true}} {
			sys, err := models.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(sys, Options{Instrument: instr})
			if err != nil {
				t.Fatal(err)
			}
			anyMarks := false
			for _, u := range prog.Units {
				tag := fmt.Sprintf("%s(%v)/%s", name, instr.Any(), u.Name)
				anyMarks = anyMarks || hasMarks(u.Init) || hasMarks(u.Body)
				pb, fb := NewMapBus(prog.Symbols), NewMapBus(prog.Symbols)
				pm := NewMachine(prog, cleared(u.Init), pb)
				fm := NewMachine(prog, u.Init, fb)
				_, perr := pm.Run()
				_, ferr := fm.Run()
				compareRuns(t, tag+"/init", pm, fm, perr, ferr, pb, fb)

				// Several releases with evolving inputs: latch, run, compare.
				plainBody := cleared(u.Body)
				rng := rand.New(rand.NewSource(0x5eed))
				for rel := 0; rel < 5; rel++ {
					for _, idx := range u.InputSyms {
						v := value.F(float64(rng.Intn(80)) - 20)
						_ = pb.StoreSym(idx, v)
						_ = fb.StoreSym(idx, v)
					}
					for _, bus := range []*MapBus{pb, fb} {
						for _, lp := range u.InLatch {
							v, _ := bus.LoadSym(lp.Work)
							_ = bus.StoreSym(lp.Out, v)
						}
					}
					pm, fm = NewMachine(prog, plainBody, pb), NewMachine(prog, u.Body, fb)
					_, perr = pm.Run()
					_, ferr = fm.Run()
					compareRuns(t, fmt.Sprintf("%s/body@%d", tag, rel), pm, fm, perr, ferr, pb, fb)
				}
			}
			if !anyMarks {
				t.Fatalf("%s: Compile marked no superinstruction site", name)
			}
		}
	}
}

// fuzzProgram builds the symbol/const pool the generated sequences index.
func fuzzProgram(t testing.TB) *Program {
	t.Helper()
	p := &Program{Symbols: NewSymbolTable()}
	for i, k := range []value.Kind{value.Float, value.Int, value.Bool, value.Float, value.Int} {
		if _, err := p.Symbols.Alloc(fmt.Sprintf("s%d", i), k, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []value.Value{
		value.F(0), value.F(1.5), value.F(-3), value.I(0), value.I(7), value.B(true),
	} {
		p.Consts = append(p.Consts, v)
	}
	p.Events = []EventTemplate{{Source: "fuzz"}}
	return p
}

// seedBus gives the fuzz symbols non-zero starting values.
func seedBus(b *MapBus) {
	_ = b.StoreSym(0, value.F(2.25))
	_ = b.StoreSym(1, value.I(-4))
	_ = b.StoreSym(2, value.B(true))
}

// fusedShapes are hand-assembled bodies exhibiting each superinstruction
// shape, including the division-by-zero error exit inside a fused site.
func fusedShapes() map[string][]Instr {
	ab := func(op Op) int32 { return int32(arithByte(op)) }
	return map[string][]Instr{
		"load-push-arith-store": {
			{Op: OpLoad, A: 0}, {Op: OpPush, A: 1}, {Op: OpAdd, A: ab(OpAdd)}, {Op: OpStore, A: 3},
			{Op: OpHalt},
		},
		"load-push-cmp-jz": {
			{Op: OpLoad, A: 0}, {Op: OpPush, A: 1}, {Op: OpLT}, {Op: OpJZ, A: 6},
			{Op: OpPush, A: 4}, {Op: OpStore, A: 4},
			{Op: OpHalt},
		},
		"load-push-eq-jz": {
			{Op: OpLoad, A: 1}, {Op: OpPush, A: 3}, {Op: OpEQ}, {Op: OpJZ, A: 6},
			{Op: OpPush, A: 4}, {Op: OpStore, A: 4},
			{Op: OpHalt},
		},
		"push-store": {
			{Op: OpPush, A: 4}, {Op: OpStore, A: 4},
			{Op: OpHalt},
		},
		"load-store": {
			{Op: OpLoad, A: 0}, {Op: OpStore, A: 3},
			{Op: OpHalt},
		},
		"load-push-div0-store": {
			{Op: OpLoad, A: 1}, {Op: OpPush, A: 3}, {Op: OpDiv, A: ab(OpDiv)}, {Op: OpStore, A: 4},
			{Op: OpHalt},
		},
		"back-to-back-fusions": {
			{Op: OpPush, A: 1}, {Op: OpStore, A: 0},
			{Op: OpLoad, A: 0}, {Op: OpStore, A: 3},
			{Op: OpLoad, A: 0}, {Op: OpPush, A: 1}, {Op: OpMul, A: ab(OpMul)}, {Op: OpStore, A: 3},
			{Op: OpHalt},
		},
	}
}

// Fuzz body encoding: two bytes per instruction, a kind and an operand.
// decodeBody keeps the operand stack legal on every path: an instruction
// that would pop more than the fall-through depth becomes a push, and a
// forward jump whose target is reached with a different depth (or lies
// past the end) is retargeted to the end of the body.
const (
	kPush = iota
	kLoad
	kStore
	kArith
	kCmp
	kUnary
	kBranch
	kJmp
	kCall
	kEmit
	kHalt
	kNop
	numKinds
)

var (
	// pops is the stack depth each kind needs.
	pops     = [numKinds]int{kStore: 1, kArith: 2, kCmp: 2, kUnary: 1, kBranch: 1, kCall: 1}
	arithOps = []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod}
	cmpOps   = []Op{OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE}
)

func decodeBody(p *Program, data []byte) []Instr {
	var code []Instr
	var depth []int // fall-through stack depth before each pc
	var after []int // stack depth a jump at pc carries to its target
	d := 0
	for i := 0; i+1 < len(data); i += 2 {
		kind, x := int(data[i])%numKinds, int(data[i+1])
		pc := len(code)
		depth = append(depth, d)
		after = append(after, -1)
		if d < pops[kind] {
			kind = kPush
		}
		var in Instr
		switch kind {
		case kPush:
			in = Instr{Op: OpPush, A: int32(x % len(p.Consts))}
			d++
		case kLoad:
			in = Instr{Op: OpLoad, A: int32(x % p.Symbols.Len())}
			d++
		case kStore:
			in = Instr{Op: OpStore, A: int32(x % p.Symbols.Len())}
			d--
		case kArith:
			op := arithOps[x%len(arithOps)]
			in = Instr{Op: op, A: int32(arithByte(op))}
			d--
		case kCmp:
			in = Instr{Op: cmpOps[x%len(cmpOps)]}
			d--
		case kUnary:
			in = Instr{Op: []Op{OpNeg, OpNot}[x%2]}
		case kBranch:
			d--
			in = Instr{Op: []Op{OpJZ, OpJNZ}[x%2], A: int32(pc + 1 + x/2)}
			after[pc] = d
		case kJmp:
			in = Instr{Op: OpJmp, A: int32(pc + 1 + x)}
			after[pc] = d
		case kCall:
			in = Instr{Op: OpCall, A: 0, B: 1} // abs/1
		case kEmit:
			in = Instr{Op: OpEmit, A: 0, B: int32(x % 2)}
			if d == 0 {
				in.B = 0
			}
			d -= int(in.B)
		case kHalt:
			in = Instr{Op: OpHalt}
		default:
			in = Instr{Op: OpNop}
		}
		code = append(code, in)
	}
	for pc, in := range code {
		if after[pc] < 0 {
			continue
		}
		if t := int(in.A); t > len(code) || (t < len(code) && depth[t] != after[pc]) {
			code[pc].A = int32(len(code))
		}
	}
	return code
}

// encodeBody is the inverse of decodeBody for stack-legal code, used to
// put hand-assembled shapes into the seed corpus.
func encodeBody(code []Instr) []byte {
	var out []byte
	for pc, in := range code {
		var kind, x int
		switch {
		case in.Op == OpPush:
			kind, x = kPush, int(in.A)
		case in.Op == OpLoad:
			kind, x = kLoad, int(in.A)
		case in.Op == OpStore:
			kind, x = kStore, int(in.A)
		case isArith(in.Op):
			kind, x = kArith, slices.Index(arithOps, in.Op)
		case isCmp(in.Op):
			kind, x = kCmp, slices.Index(cmpOps, in.Op)
		case in.Op == OpNeg || in.Op == OpNot:
			kind, x = kUnary, int(in.Op-OpNeg)
		case in.Op == OpJZ || in.Op == OpJNZ:
			kind, x = kBranch, int(in.Op-OpJZ)+2*(int(in.A)-pc-1)
		case in.Op == OpJmp:
			kind, x = kJmp, int(in.A)-pc-1
		case in.Op == OpCall:
			kind = kCall
		case in.Op == OpEmit:
			kind, x = kEmit, int(in.B)
		case in.Op == OpHalt:
			kind = kHalt
		default:
			kind = kNop
		}
		out = append(out, byte(kind), byte(x))
	}
	return out
}

// missHook is an armed break hook whose predicates never hold: it charges
// BreakCheckCycles at every check site and never halts.
type missHook struct{}

func (missHook) CheckStore(int, value.Value) (bool, uint64) { return false, BreakCheckCycles }
func (missHook) CheckEmit(EmitRef) (bool, uint64)           { return false, BreakCheckCycles }

// FuzzFusedMatchesPlain runs a generated body marked and with its marks
// cleared, in slices of the given cycle budget (0: one uninterrupted run),
// optionally under an armed always-miss break hook, and compares the two
// after every slice.
func FuzzFusedMatchesPlain(f *testing.F) {
	shapes := fusedShapes()
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		enc := encodeBody(shapes[name])
		for _, slice := range []uint8{0, 1, 3, 5} {
			f.Add(enc, slice, false)
		}
		f.Add(enc, uint8(0), true)
	}
	p := fuzzProgram(f)
	f.Fuzz(func(t *testing.T, data []byte, slice uint8, hook bool) {
		if len(data) > 128 {
			data = data[:128]
		}
		plain := decodeBody(p, data)
		fused := marked(plain)
		pb, fb := NewMapBus(p.Symbols), NewMapBus(p.Symbols)
		seedBus(pb)
		seedBus(fb)
		pm, fm := NewMachine(p, plain, pb), NewMachine(p, fused, fb)
		if hook {
			pm.Hook, fm.Hook = missHook{}, missHook{}
		}
		budget := uint64(slice)
		if slice == 0 {
			budget = ^uint64(0)
		}
		for n := 0; ; n++ {
			if n > len(plain)+1 {
				t.Fatalf("sliced run does not terminate")
			}
			_, perr := pm.RunBudget(budget)
			_, ferr := fm.RunBudget(budget)
			compareRuns(t, fmt.Sprintf("slice %d", n), pm, fm, perr, ferr, pb, fb)
			if perr != nil || pm.Done() {
				return
			}
		}
	})
}

// TestDecodeBodyRoundTripsShapes: the seed corpus encodes each shape
// exactly, so the fuzz target starts from the shapes themselves.
func TestDecodeBodyRoundTripsShapes(t *testing.T) {
	p := fuzzProgram(t)
	for name, code := range fusedShapes() {
		if got := decodeBody(p, encodeBody(code)); !slices.Equal(got, code) {
			t.Errorf("%s: decoded %v, want %v", name, got, code)
		}
	}
}

// TestStepLimitInsideFusedSite: after a run of NOPs the step limit lands
// on each instruction of a fused site in turn. The marked body must
// de-fuse there and fail at the same pc, with the same accounting, as the
// plain one.
func TestStepLimitInsideFusedSite(t *testing.T) {
	p := fuzzProgram(t)
	shape := fusedShapes()["load-push-arith-store"][:4]
	plain := make([]Instr, maxSteps+len(shape)) // the zero Instr is a NOP
	fused := make([]Instr, len(plain))
	for at := range shape {
		// The site starts at maxSteps-at, so the limit trips before its
		// instruction at.
		n := maxSteps - at + len(shape)
		copy(plain[n-len(shape):n], shape)
		copy(fused, plain[:n])
		markFused(fused[:n])
		pb, fb := NewMapBus(p.Symbols), NewMapBus(p.Symbols)
		pm, fm := NewMachine(p, plain[:n], pb), NewMachine(p, fused[:n], fb)
		_, perr := pm.Run()
		_, ferr := fm.Run()
		tag := fmt.Sprintf("limit at site instruction %d", at)
		if perr == nil {
			t.Fatalf("%s: plain run did not hit the step limit", tag)
		}
		compareRuns(t, tag, pm, fm, perr, ferr, pb, fb)
	}
}

// TestInstrStaysSixteenBytes: the fuse mark lives in what was padding.
func TestInstrStaysSixteenBytes(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 16 {
		t.Fatalf("Instr is %d bytes, want 16", n)
	}
}
