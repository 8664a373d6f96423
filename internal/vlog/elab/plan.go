package elab

import (
	"repro/internal/vlog"
	"repro/internal/vnum"
)

// This file implements compiled expression plans. The simulator's
// interpreter re-derives IEEE 1364 width and signedness context — the
// selfWidth/selfSigned recursion — on every evaluation of every
// expression, on every event. All of that context is static once a design
// is elaborated: signal widths, parameter values, part-select bounds, and
// replication counts cannot change at runtime. A Plan is the expression
// with all of it resolved once: every node carries its evaluation width
// and effective signedness, parameters are folded to constants, part
// selects carry pre-mapped storage offsets, and signal/memory references
// are bound to their declarations in a concrete instance. Executing a plan
// (the simulator binds each node to a closure over its runtime signal
// state) performs no width derivation, no constant evaluation, and no AST
// type switching.
//
// Plans are semantically exact: for every expression the plan's value is
// bit-identical — including the signedness flag that %d formatting reads
// and the $random draw order — to the interpreter's. The differential
// tests in internal/sim and internal/eval pin that equivalence.

// PlanOp enumerates compiled plan node kinds. Each kind corresponds to one
// evaluation shape of the interpreter, not one AST node type: e.g. the
// context-transparent unary operators (+ - ~) and the self-determined
// reductions compile to different kinds because their operands evaluate at
// different widths.
type PlanOp uint8

// Plan node kinds.
const (
	PlanConst   PlanOp = iota // pre-folded constant (literals, strings, parameters)
	PlanSignal                // signal read, bound to a declaration in an instance
	PlanMemRead               // memory word read with a dynamic index
	PlanBitSel                // single-bit select with a dynamic index
	PlanPartSel               // constant part select, offsets pre-resolved
	PlanUnary                 // context-transparent unary: + - ~
	PlanReduce                // reductions and !, operand self-determined
	PlanBinary                // context-determined arithmetic/bitwise binary
	PlanShift                 // << <<< >> >>>: amount self-determined, used unsigned
	PlanPow                   // **: exponent self-determined, signedness preserved
	PlanLogical               // && ||: operands self-determined
	PlanCompare               // relational/equality: operands at their own common type
	PlanTernary               // ?: with the LRM unknown-condition merge
	PlanConcat                // concatenation, parts self-determined
	PlanRepl                  // replication, count pre-resolved
	PlanSysFunc               // $time, $random, $signed, ...
)

// Plan is one node of a compiled expression plan. Width and Signed are the
// node's evaluation type with assignment context already applied; operand
// plans are compiled at the widths the LRM assigns them, so no node ever
// re-derives context at runtime.
type Plan struct {
	Op     PlanOp
	Width  int
	Signed bool

	Text  string     // operator lexeme or system-function name
	Const vnum.Value // PlanConst: payload, already at (Width, Signed) unless raw (see compile)

	Scope *Inst   // instance binding for Sig/Mem
	Sig   *Signal // PlanSignal, or the base declaration of PlanBitSel/PlanPartSel
	Mem   *Mem    // PlanMemRead

	X, Y, Z *Plan   // operands (cond/then/else for PlanTernary)
	Parts   []*Plan // PlanConcat parts, PlanSysFunc args

	A, B  int  // PlanPartSel offsets (hi, lo) or declared bounds; PlanRepl count in A
	Span  int  // PlanPartSel raw slice width
	OK    bool // PlanPartSel: offsets resolved inside the declared range
	CmpW  int  // PlanCompare operand width (the operands' own common type)
	CmpSg bool // PlanCompare operand signedness
}

// maxWidth is the widest vector elaboration accepts: a declaration, and
// the self-determined width of a part select, concatenation or
// replication. It bounds what one candidate can make the simulator
// allocate: `{1000000000{a}}` is an elaboration error rather than an
// out-of-memory abort of the whole process.
const maxWidth = 1 << 16

// tooWide is where widths saturate: any width above maxWidth.
const tooWide = maxWidth + 1

// satAdd and satMul combine non-negative widths, saturating at tooWide.
// Clamping the operands first keeps the int arithmetic exact however
// deeply replications nest.
func satAdd(a, b int) int { return min(min(a, tooWide)+min(b, tooWide), tooWide) }
func satMul(a, b int) int { return min(min(a, tooWide)*min(b, tooWide), tooWide) }

// spanWidth is the width of the bit range [msb:lsb] in either order,
// saturated at tooWide.
func spanWidth(msb, lsb int) int {
	if msb < lsb {
		msb, lsb = lsb, msb
	}
	if d := uint64(msb) - uint64(lsb); d < maxWidth {
		return int(d) + 1
	}
	return tooWide
}

// SelfWidth computes the static self-determined width of an expression in
// an elaborated instance (IEEE 1364 Table 5-22). Part-select,
// concatenation and replication widths saturate at maxWidth+1; an
// elaborated design has none that wide.
func SelfWidth(e vlog.Expr, in *Inst) int {
	switch n := e.(type) {
	case *vlog.Number:
		return n.Value.Width()
	case *vlog.Str:
		w := 8 * len(n.Text)
		if w == 0 {
			w = 8
		}
		return w
	case *vlog.Ident:
		if s, ok := in.Signals[n.Name]; ok {
			return s.Width
		}
		if p, ok := in.Params[n.Name]; ok {
			return p.Width()
		}
		return 1
	case *vlog.Index:
		if id, ok := n.X.(*vlog.Ident); ok {
			if m, ok := in.Mems[id.Name]; ok {
				return m.Width
			}
		}
		return 1
	case *vlog.RangeSel:
		msb, lsb, ok := PartSelBounds(n, in)
		if !ok {
			return 1
		}
		return spanWidth(msb, lsb)
	case *vlog.Unary:
		switch n.Op {
		case "+", "-", "~":
			return SelfWidth(n.X, in)
		default: // reductions and !
			return 1
		}
	case *vlog.Binary:
		switch n.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			a, b := SelfWidth(n.X, in), SelfWidth(n.Y, in)
			if a > b {
				return a
			}
			return b
		case "<<", ">>", ">>>", "<<<", "**":
			return SelfWidth(n.X, in)
		default: // relational, equality, logical
			return 1
		}
	case *vlog.Ternary:
		a, b := SelfWidth(n.Then, in), SelfWidth(n.Else, in)
		if a > b {
			return a
		}
		return b
	case *vlog.Concat:
		total := 0
		for _, p := range n.Parts {
			total = satAdd(total, SelfWidth(p, in))
		}
		if total == 0 {
			total = 1
		}
		return total
	case *vlog.Repl:
		return satMul(replCount(n, in), SelfWidth(n.X, in))
	case *vlog.SysCallExpr:
		switch n.Name {
		case "$time", "$stime":
			return 64
		case "$random", "$urandom", "$clog2":
			return 32
		case "$signed", "$unsigned":
			if len(n.Args) == 1 {
				return SelfWidth(n.Args[0], in)
			}
		}
		return 32
	default:
		return 1
	}
}

// SelfSigned computes the static self-determined signedness of an
// expression in an elaborated instance.
func SelfSigned(e vlog.Expr, in *Inst) bool {
	switch n := e.(type) {
	case *vlog.Number:
		return n.Value.Signed()
	case *vlog.Ident:
		if s, ok := in.Signals[n.Name]; ok {
			return s.Signed
		}
		if p, ok := in.Params[n.Name]; ok {
			return p.Signed()
		}
		return false
	case *vlog.Index, *vlog.RangeSel, *vlog.Concat, *vlog.Repl, *vlog.Str:
		return false
	case *vlog.Unary:
		switch n.Op {
		case "+", "-", "~":
			return SelfSigned(n.X, in)
		default:
			return false
		}
	case *vlog.Binary:
		switch n.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~", "**":
			return SelfSigned(n.X, in) && SelfSigned(n.Y, in)
		case "<<", ">>", ">>>", "<<<":
			return SelfSigned(n.X, in)
		default:
			return false
		}
	case *vlog.Ternary:
		return SelfSigned(n.Then, in) && SelfSigned(n.Else, in)
	case *vlog.SysCallExpr:
		switch n.Name {
		case "$signed", "$random":
			return true
		}
		return false
	default:
		return false
	}
}

// PartSelBounds resolves the constant bounds of a part select (verified
// constant at elaboration); ok is false when they do not evaluate.
func PartSelBounds(n *vlog.RangeSel, in *Inst) (msb, lsb int, ok bool) {
	mv, err1 := ConstEval(n.MSB, in)
	lv, err2 := ConstEval(n.LSB, in)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	mi, ok1 := mv.Int64()
	li, ok2 := lv.Int64()
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	return int(mi), int(li), true
}

// replCount resolves a replication count the way the interpreter does for
// self-width purposes: unresolvable counts default to 1, and counts above
// maxWidth saturate at tooWide.
func replCount(n *vlog.Repl, in *Inst) int {
	if v, err := ConstEval(n.Count, in); err == nil {
		if u, ok := v.Uint64(); ok {
			return int(min(u, tooWide))
		}
	}
	return 1
}

// CompileExpr compiles e for evaluation with assignment-context width ctx
// (0 for a self-determined position): the node evaluates at
// max(self-determined width, ctx) with its self-determined signedness.
func CompileExpr(e vlog.Expr, in *Inst, ctx int) *Plan {
	w := SelfWidth(e, in)
	if ctx > w {
		w = ctx
	}
	return CompileExprSized(e, in, w, SelfSigned(e, in))
}

// sizedConst applies the context (w, sg) to a constant at compile time —
// exactly the interpreter's sized() on an invariant value.
func sizedConst(v vnum.Value, w int, sg bool) vnum.Value {
	return v.ResizeAs(w, sg)
}

// constPlan returns a pre-folded constant node holding v verbatim.
func constPlan(v vnum.Value, w int, sg bool) *Plan {
	return &Plan{Op: PlanConst, Width: w, Signed: sg, Const: v}
}

// CompileExprSized compiles e to evaluate at width w with expression-level
// signedness sg (the case-label entry point uses it directly with sg
// forced false).
func CompileExprSized(e vlog.Expr, in *Inst, w int, sg bool) *Plan {
	switch n := e.(type) {
	case *vlog.Number:
		return constPlan(sizedConst(n.Value, w, sg), w, sg)
	case *vlog.Str:
		v := vnum.Zero(8 * max(1, len(n.Text)))
		for i := 0; i < len(n.Text); i++ {
			b := n.Text[len(n.Text)-1-i]
			for k := 0; k < 8; k++ {
				if b>>uint(k)&1 == 1 {
					v = v.WithBit(i*8+k, vnum.B1)
				}
			}
		}
		return constPlan(sizedConst(v, w, sg), w, sg)
	case *vlog.Ident:
		if s, ok := in.Signals[n.Name]; ok {
			return &Plan{Op: PlanSignal, Width: w, Signed: sg, Scope: in, Sig: s}
		}
		if p, ok := in.Params[n.Name]; ok {
			return constPlan(sizedConst(p, w, sg), w, sg)
		}
		// undeclared (rejected at elaboration; defensive): raw all-x,
		// mirroring the interpreter's unsized AllX(w) return
		return constPlan(vnum.AllX(w), w, sg)
	case *vlog.Index:
		if id, ok := n.X.(*vlog.Ident); ok {
			if m, ok := in.Mems[id.Name]; ok {
				return &Plan{Op: PlanMemRead, Width: w, Signed: sg, Scope: in, Mem: m,
					X: CompileExpr(n.I, in, 0)}
			}
		}
		p := &Plan{Op: PlanBitSel, Width: w, Signed: sg, Scope: in,
			X: CompileExpr(n.X, in, 0), Y: CompileExpr(n.I, in, 0)}
		if id, ok := n.X.(*vlog.Ident); ok {
			if s, ok := in.Signals[id.Name]; ok {
				p.Sig = s
			}
		}
		return p
	case *vlog.RangeSel:
		msb, lsb, ok := PartSelBounds(n, in)
		if !ok {
			// non-constant bounds: the interpreter returns AllX(1) without
			// evaluating the base
			return constPlan(sizedConst(vnum.AllX(1), w, sg), w, sg)
		}
		span := msb - lsb
		if span < 0 {
			span = -span
		}
		span++
		p := &Plan{Op: PlanPartSel, Width: w, Signed: sg, Scope: in,
			X: CompileExpr(n.X, in, 0), A: msb, B: lsb, Span: span, OK: true}
		if id, ok := n.X.(*vlog.Ident); ok {
			if s, ok := in.Signals[id.Name]; ok {
				p.Sig = s
				hiOff, ok1 := s.Offset(msb)
				loOff, ok2 := s.Offset(lsb)
				if ok1 && ok2 {
					p.A, p.B = hiOff, loOff
				} else {
					p.OK = false // base still evaluated, result all-x
				}
			}
		}
		return p
	case *vlog.Unary:
		switch n.Op {
		case "+", "-", "~":
			return &Plan{Op: PlanUnary, Width: w, Signed: sg, Text: n.Op,
				X: CompileExprSized(n.X, in, w, sg)}
		default: // reductions, !
			return &Plan{Op: PlanReduce, Width: w, Signed: sg, Text: n.Op,
				X: CompileExpr(n.X, in, 0)}
		}
	case *vlog.Binary:
		switch n.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			return &Plan{Op: PlanBinary, Width: w, Signed: sg, Text: n.Op,
				X: CompileExprSized(n.X, in, w, sg),
				Y: CompileExprSized(n.Y, in, w, sg)}
		case "<<", "<<<", ">>", ">>>":
			return &Plan{Op: PlanShift, Width: w, Signed: sg, Text: n.Op,
				X: CompileExprSized(n.X, in, w, sg),
				Y: CompileExpr(n.Y, in, 0)}
		case "**":
			return &Plan{Op: PlanPow, Width: w, Signed: sg, Text: n.Op,
				X: CompileExprSized(n.X, in, w, sg),
				Y: CompileExpr(n.Y, in, 0)}
		case "&&", "||":
			return &Plan{Op: PlanLogical, Width: w, Signed: sg, Text: n.Op,
				X: CompileExpr(n.X, in, 0),
				Y: CompileExpr(n.Y, in, 0)}
		default: // relational and equality: operands sized to their max
			ow := SelfWidth(n.X, in)
			if yw := SelfWidth(n.Y, in); yw > ow {
				ow = yw
			}
			osg := SelfSigned(n.X, in) && SelfSigned(n.Y, in)
			return &Plan{Op: PlanCompare, Width: w, Signed: sg, Text: n.Op,
				CmpW: ow, CmpSg: osg,
				X: CompileExprSized(n.X, in, ow, osg),
				Y: CompileExprSized(n.Y, in, ow, osg)}
		}
	case *vlog.Ternary:
		return &Plan{Op: PlanTernary, Width: w, Signed: sg,
			X: CompileExpr(n.Cond, in, 0),
			Y: CompileExprSized(n.Then, in, w, sg),
			Z: CompileExprSized(n.Else, in, w, sg)}
	case *vlog.Concat:
		parts := make([]*Plan, len(n.Parts))
		for i, p := range n.Parts {
			parts[i] = CompileExpr(p, in, 0)
		}
		return &Plan{Op: PlanConcat, Width: w, Signed: sg, Parts: parts}
	case *vlog.Repl:
		cnt := 0 // unresolvable counts replicate zero times, like the interpreter
		if v, err := ConstEval(n.Count, in); err == nil {
			if u, ok := v.Uint64(); ok {
				cnt = int(u)
			}
		}
		return &Plan{Op: PlanRepl, Width: w, Signed: sg, A: cnt,
			X: CompileExpr(n.X, in, 0)}
	case *vlog.SysCallExpr:
		p := &Plan{Op: PlanSysFunc, Width: w, Signed: sg, Text: n.Name}
		switch n.Name {
		case "$time", "$stime", "$random", "$urandom":
			return p
		case "$signed", "$unsigned", "$clog2":
			if len(n.Args) == 1 {
				p.X = CompileExpr(n.Args[0], in, 0)
				return p
			}
		}
		// unknown function or malformed arity: all-x, sized
		return constPlan(sizedConst(vnum.AllX(32), w, sg), w, sg)
	default:
		// unsupported expression form: raw all-x, mirroring the interpreter
		return constPlan(vnum.AllX(w), w, sg)
	}
}
