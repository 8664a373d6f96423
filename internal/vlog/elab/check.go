package elab

import (
	"repro/internal/vlog"
	"repro/internal/vnum"
)

// knownSysTasks are the system tasks accepted in statement position.
var knownSysTasks = map[string]bool{
	"$display": true, "$write": true, "$strobe": true, "$monitor": true,
	"$finish": true, "$stop": true, "$dumpfile": true, "$dumpvars": true,
	"$time": true, "$random": true, "$readmemh": true, "$readmemb": true,
	"$error": true, "$fatal": true,
}

// knownSysFuncs are the system functions accepted in expression position.
var knownSysFuncs = map[string]bool{
	"$time": true, "$stime": true, "$random": true, "$urandom": true,
	"$signed": true, "$unsigned": true, "$clog2": true,
}

// ConstEval evaluates a constant expression (literals, parameters of inst,
// and operators over them). The simulator uses it for part-select bounds
// and replication counts.
func ConstEval(x vlog.Expr, inst *Inst) (vnum.Value, error) {
	return (&elaborator{}).constEval(x, inst)
}

// ApplyUnary applies a unary operator to a value (shared operator table).
func ApplyUnary(op string, v vnum.Value) vnum.Value { return applyUnaryConst(op, v) }

// ApplyBinary applies a binary operator to two values (shared operator
// table; operands must already be extended to a common width).
func ApplyBinary(op string, a, b vnum.Value) vnum.Value { return applyBinaryConst(op, a, b) }

// constEval evaluates a constant expression (literals, parameters and
// operators over them). It is used for parameter values and ranges.
func (e *elaborator) constEval(x vlog.Expr, inst *Inst) (vnum.Value, error) {
	switch n := x.(type) {
	case *vlog.Number:
		return n.Value, nil
	case *vlog.Ident:
		if v, ok := inst.Params[n.Name]; ok {
			return v, nil
		}
		return vnum.Value{}, errf(n.Pos, "%q is not a constant (parameters only in constant context)", n.Name)
	case *vlog.Unary:
		v, err := e.constEval(n.X, inst)
		if err != nil {
			return vnum.Value{}, err
		}
		return applyUnaryConst(n.Op, v), nil
	case *vlog.Binary:
		a, err := e.constEval(n.X, inst)
		if err != nil {
			return vnum.Value{}, err
		}
		b, err := e.constEval(n.Y, inst)
		if err != nil {
			return vnum.Value{}, err
		}
		return applyBinaryConst(n.Op, a, b), nil
	case *vlog.Ternary:
		c, err := e.constEval(n.Cond, inst)
		if err != nil {
			return vnum.Value{}, err
		}
		if c.IsTrue() {
			return e.constEval(n.Then, inst)
		}
		return e.constEval(n.Else, inst)
	case *vlog.Concat:
		parts := make([]vnum.Value, 0, len(n.Parts))
		total := 0
		for _, p := range n.Parts {
			v, err := e.constEval(p, inst)
			if err != nil {
				return vnum.Value{}, err
			}
			parts = append(parts, v)
			total = satAdd(total, v.Width())
		}
		if total > maxWidth {
			return vnum.Value{}, errf(n.Pos, "concatenation too wide (more than %d bits)", maxWidth)
		}
		return vnum.Concat(parts...), nil
	case *vlog.Repl:
		c, err := e.constEval(n.Count, inst)
		if err != nil {
			return vnum.Value{}, err
		}
		v, err := e.constEval(n.X, inst)
		if err != nil {
			return vnum.Value{}, err
		}
		cnt, ok := c.Uint64()
		if !ok || cnt > 1<<12 {
			return vnum.Value{}, errf(n.Pos, "bad replication count")
		}
		if int(cnt)*v.Width() > maxWidth {
			return vnum.Value{}, errf(n.Pos, "replication too wide (more than %d bits)", maxWidth)
		}
		return vnum.Replicate(int(cnt), v), nil
	default:
		return vnum.Value{}, errf(x.(vlog.Node).NodePos(), "expression is not constant")
	}
}

func applyUnaryConst(op string, v vnum.Value) vnum.Value {
	switch op {
	case "+":
		return v
	case "-":
		return vnum.Neg(v)
	case "!":
		return vnum.LogNot(v)
	case "~":
		return vnum.Not(v)
	case "&":
		return vnum.RedAnd(v)
	case "|":
		return vnum.RedOr(v)
	case "^":
		return vnum.RedXor(v)
	case "~&":
		return vnum.RedNand(v)
	case "~|":
		return vnum.RedNor(v)
	default: // ~^ ^~
		return vnum.RedXnor(v)
	}
}

func applyBinaryConst(op string, a, b vnum.Value) vnum.Value {
	switch op {
	case "+":
		return vnum.Add(a, b)
	case "-":
		return vnum.Sub(a, b)
	case "*":
		return vnum.Mul(a, b)
	case "/":
		return vnum.Div(a, b)
	case "%":
		return vnum.Mod(a, b)
	case "**":
		return vnum.Pow(a, b)
	case "&":
		return vnum.And(a, b)
	case "|":
		return vnum.Or(a, b)
	case "^":
		return vnum.Xor(a, b)
	case "~^", "^~":
		return vnum.Xnor(a, b)
	case "==":
		return vnum.Eq(a, b)
	case "!=":
		return vnum.Neq(a, b)
	case "===":
		return vnum.CaseEq(a, b)
	case "!==":
		return vnum.CaseNeq(a, b)
	case "<":
		return vnum.Lt(a, b)
	case "<=":
		return vnum.Le(a, b)
	case ">":
		return vnum.Gt(a, b)
	case ">=":
		return vnum.Ge(a, b)
	case "&&":
		return vnum.LogAnd(a, b)
	case "||":
		return vnum.LogOr(a, b)
	case "<<", "<<<":
		return vnum.Shl(a, b)
	case ">>":
		return vnum.Shr(a, b)
	case ">>>":
		return vnum.Sshr(a, b)
	default:
		return vnum.AllX(1)
	}
}

// checkExpr validates every identifier reference and system function in an
// expression against the instance scope.
func (e *elaborator) checkExpr(x vlog.Expr, inst *Inst) error {
	switch n := x.(type) {
	case nil:
		return nil
	case *vlog.Number, *vlog.Str:
		return nil
	case *vlog.Ident:
		if _, ok := inst.Signals[n.Name]; ok {
			return nil
		}
		if _, ok := inst.Params[n.Name]; ok {
			return nil
		}
		if _, ok := inst.Mems[n.Name]; ok {
			return errf(n.Pos, "memory %q used without an index", n.Name)
		}
		return errf(n.Pos, "undeclared identifier %q", n.Name)
	case *vlog.Unary:
		return e.checkExpr(n.X, inst)
	case *vlog.Binary:
		if err := e.checkExpr(n.X, inst); err != nil {
			return err
		}
		return e.checkExpr(n.Y, inst)
	case *vlog.Ternary:
		if err := e.checkExpr(n.Cond, inst); err != nil {
			return err
		}
		if err := e.checkExpr(n.Then, inst); err != nil {
			return err
		}
		return e.checkExpr(n.Else, inst)
	case *vlog.Concat:
		for _, p := range n.Parts {
			if err := e.checkExpr(p, inst); err != nil {
				return err
			}
		}
		return checkWidth(n, inst, "concatenation")
	case *vlog.Repl:
		if _, err := e.constEval(n.Count, inst); err != nil {
			return err
		}
		if err := e.checkExpr(n.X, inst); err != nil {
			return err
		}
		// the count alone bounds the work even when x is zero bits wide
		if replCount(n, inst) > maxWidth {
			return errf(n.Pos, "replication count exceeds %d", maxWidth)
		}
		return checkWidth(n, inst, "replication")
	case *vlog.Index:
		if id, ok := n.X.(*vlog.Ident); ok {
			if _, isMem := inst.Mems[id.Name]; isMem {
				return e.checkExpr(n.I, inst)
			}
		}
		if err := e.checkExpr(n.X, inst); err != nil {
			return err
		}
		return e.checkExpr(n.I, inst)
	case *vlog.RangeSel:
		if err := e.checkExpr(n.X, inst); err != nil {
			return err
		}
		// part-select bounds must be constant
		if _, err := e.constEval(n.MSB, inst); err != nil {
			return err
		}
		if _, err := e.constEval(n.LSB, inst); err != nil {
			return err
		}
		return checkWidth(n, inst, "part select")
	case *vlog.SysCallExpr:
		if !knownSysFuncs[n.Name] {
			return errf(n.Pos, "unknown system function %q", n.Name)
		}
		for _, a := range n.Args {
			if err := e.checkExpr(a, inst); err != nil {
				return err
			}
		}
		return nil
	default:
		return errf(x.(vlog.Node).NodePos(), "unsupported expression")
	}
}

// checkLValue validates an assignment target. wantReg selects procedural
// targets (must be variables) vs continuous targets (must be nets).
func (e *elaborator) checkLValue(x vlog.Expr, inst *Inst, wantReg bool) error {
	switch n := x.(type) {
	case *vlog.Ident:
		s, ok := inst.Signals[n.Name]
		if !ok {
			if _, isMem := inst.Mems[n.Name]; isMem {
				return errf(n.Pos, "memory %q must be assigned one word at a time", n.Name)
			}
			return errf(n.Pos, "undeclared identifier %q", n.Name)
		}
		if wantReg && !s.IsReg {
			return errf(n.Pos, "%q is not a reg; procedural assignment requires a variable", n.Name)
		}
		if !wantReg && s.IsReg {
			return errf(n.Pos, "%q is a reg; continuous assignment requires a net", n.Name)
		}
		if s.Dir == vlog.DirInput {
			return errf(n.Pos, "cannot assign to input port %q", n.Name)
		}
		return nil
	case *vlog.Index:
		id, ok := n.X.(*vlog.Ident)
		if !ok {
			return errf(n.Pos, "unsupported lvalue")
		}
		if _, isMem := inst.Mems[id.Name]; isMem {
			if !wantReg {
				return errf(n.Pos, "memory %q cannot be a continuous assignment target", id.Name)
			}
			return e.checkExpr(n.I, inst)
		}
		if err := e.checkLValue(id, inst, wantReg); err != nil {
			return err
		}
		return e.checkExpr(n.I, inst)
	case *vlog.RangeSel:
		id, ok := n.X.(*vlog.Ident)
		if !ok {
			return errf(n.Pos, "unsupported lvalue")
		}
		if err := e.checkLValue(id, inst, wantReg); err != nil {
			return err
		}
		if _, err := e.constEval(n.MSB, inst); err != nil {
			return err
		}
		if _, err := e.constEval(n.LSB, inst); err != nil {
			return err
		}
		return checkWidth(n, inst, "part select")
	case *vlog.Concat:
		for _, p := range n.Parts {
			if err := e.checkLValue(p, inst, wantReg); err != nil {
				return err
			}
		}
		return checkWidth(n, inst, "concatenation")
	default:
		return errf(x.(vlog.Node).NodePos(), "invalid assignment target")
	}
}

// checkWidth rejects an expression whose self-determined width exceeds
// maxWidth: the simulator would allocate a value that wide for it, or
// size the other side of its assignment to match.
func checkWidth(x vlog.Expr, inst *Inst, what string) error {
	if SelfWidth(x, inst) > maxWidth {
		return errf(x.(vlog.Node).NodePos(), "%s too wide (more than %d bits)", what, maxWidth)
	}
	return nil
}

func (e *elaborator) checkContAssign(a *vlog.Assign, inst *Inst) error {
	if err := e.checkLValue(a.LHS, inst, false); err != nil {
		return err
	}
	return e.checkExpr(a.RHS, inst)
}

// checkStmt validates a behavioural statement tree.
func (e *elaborator) checkStmt(s vlog.Stmt, inst *Inst, procedural bool) error {
	switch n := s.(type) {
	case nil, *vlog.Null:
		return nil
	case *vlog.Block:
		for _, st := range n.Stmts {
			if err := e.checkStmt(st, inst, procedural); err != nil {
				return err
			}
		}
		return nil
	case *vlog.Assign:
		if err := e.checkLValue(n.LHS, inst, true); err != nil {
			return err
		}
		return e.checkExpr(n.RHS, inst)
	case *vlog.If:
		if err := e.checkExpr(n.Cond, inst); err != nil {
			return err
		}
		if err := e.checkStmt(n.Then, inst, procedural); err != nil {
			return err
		}
		return e.checkStmt(n.Else, inst, procedural)
	case *vlog.Case:
		if err := e.checkExpr(n.Expr, inst); err != nil {
			return err
		}
		defaults := 0
		for _, item := range n.Items {
			if item.Exprs == nil {
				defaults++
				if defaults > 1 {
					return errf(item.Pos, "multiple default arms in case")
				}
			}
			for _, x := range item.Exprs {
				if err := e.checkExpr(x, inst); err != nil {
					return err
				}
			}
			if err := e.checkStmt(item.Body, inst, procedural); err != nil {
				return err
			}
		}
		return nil
	case *vlog.For:
		if err := e.checkStmt(n.Init, inst, procedural); err != nil {
			return err
		}
		if err := e.checkExpr(n.Cond, inst); err != nil {
			return err
		}
		if err := e.checkStmt(n.Step, inst, procedural); err != nil {
			return err
		}
		return e.checkStmt(n.Body, inst, procedural)
	case *vlog.While:
		if err := e.checkExpr(n.Cond, inst); err != nil {
			return err
		}
		return e.checkStmt(n.Body, inst, procedural)
	case *vlog.Repeat:
		if err := e.checkExpr(n.Count, inst); err != nil {
			return err
		}
		return e.checkStmt(n.Body, inst, procedural)
	case *vlog.Forever:
		return e.checkStmt(n.Body, inst, procedural)
	case *vlog.Delay:
		if err := e.checkExpr(n.Amount, inst); err != nil {
			return err
		}
		return e.checkStmt(n.Stmt, inst, procedural)
	case *vlog.EventCtrl:
		for _, ev := range n.Events {
			if err := e.checkExpr(ev.X, inst); err != nil {
				return err
			}
		}
		return e.checkStmt(n.Stmt, inst, procedural)
	case *vlog.Wait:
		if err := e.checkExpr(n.Cond, inst); err != nil {
			return err
		}
		return e.checkStmt(n.Stmt, inst, procedural)
	case *vlog.SysCall:
		if !knownSysTasks[n.Name] {
			return errf(n.Pos, "unknown system task %q", n.Name)
		}
		for _, a := range n.Args {
			if err := e.checkExpr(a, inst); err != nil {
				return err
			}
		}
		return nil
	default:
		return errf(s.(vlog.Node).NodePos(), "unsupported statement")
	}
}
