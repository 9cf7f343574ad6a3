package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockCheck enforces lock discipline in the concurrent tier: no mutex
// copied by value, no Lock left unpaired on any path to return, no
// re-Lock of a mutex a path already holds.
//
// The serving tier (store, service, sweep, telemetry) is the one part
// of the repo where the race detector is the only runtime gate, and
// the race detector only sees schedules the test runner happens to
// produce. The three rules here are the lock bugs that survive
// `-race`: a copied mutex guards nothing (each copy is a fresh
// unlocked lock), a Lock missing its Unlock on one early-return path
// deadlocks the next caller on a schedule tests never run, and a
// double-Lock on the same receiver self-deadlocks only when the first
// hold is still live. Unlock pairing and double-Lock are path
// properties, so this analyzer runs a may/must lockset dataflow over
// the CFG rather than matching syntax.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc: "enforce lock discipline in the concurrent tier: no sync.Mutex/RWMutex/WaitGroup copied by value, " +
		"no Lock without an Unlock (or defer Unlock) on every path to return, no Lock while the same lock is already held",
	Applies: lockCheckScope,
	Run:     runLockCheck,
}

// lockCheckScope: the packages that hold locks — the serving tier and
// the durable store plus the telemetry hub. The simulation packages are
// single-goroutine by design and own no locks.
func lockCheckScope(pkgPath, filename string) bool {
	switch pkgPath {
	case "phantom/internal/store", "phantom/internal/service", "phantom/internal/sweep",
		"phantom/internal/telemetry":
		return true
	}
	return false
}

func runLockCheck(pass *Pass) {
	for _, file := range pass.Files {
		checkLockCopies(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkLockPaths(pass, n)
				}
			case *ast.FuncLit:
				checkLockPaths(pass, n)
			}
			return true
		})
	}
}

// --- rule 1: locks copied by value -----------------------------------

// lockTypeName returns the sync type name t contains by value ("Mutex",
// "RWMutex", "WaitGroup", "Once", "Cond"), or "".
func lockTypeName(t types.Type) string {
	return lockTypeNameRec(t, make(map[*types.Named]bool))
}

func lockTypeNameRec(t types.Type, seen map[*types.Named]bool) string {
	if named, ok := t.(*types.Named); ok {
		if seen[named] {
			return ""
		}
		seen[named] = true
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond":
				return obj.Name()
			}
		}
		return lockTypeNameRec(named.Underlying(), seen)
	}
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if name := lockTypeNameRec(t.Field(i).Type(), seen); name != "" {
				return name
			}
		}
	case *types.Array:
		return lockTypeNameRec(t.Elem(), seen)
	}
	return ""
}

// checkLockCopies flags the value-copy shapes: lock-bearing parameters,
// receivers and results, assignments copying an existing lock-bearing
// value, and range clauses copying lock-bearing elements.
func checkLockCopies(pass *Pass, file *ast.File) {
	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			tv, ok := pass.Info.Types[field.Type]
			if !ok || tv.Type == nil {
				continue
			}
			if name := lockTypeName(tv.Type); name != "" {
				pass.Reportf(field.Pos(), "%s carries sync.%s by value; each copy is a fresh unlocked lock — use a pointer", what, name)
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkFieldList(n.Recv, "receiver")
			checkFieldList(n.Type.Params, "parameter")
			checkFieldList(n.Type.Results, "result")
		case *ast.FuncLit:
			checkFieldList(n.Type.Params, "parameter")
			checkFieldList(n.Type.Results, "result")
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				// Discarding into the blank identifier copies nothing
				// anyone can lock; only real destinations matter.
				if len(n.Lhs) == len(n.Rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
				}
				checkLockCopyExpr(pass, rhs)
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				checkLockCopyExpr(pass, v)
			}
		case *ast.RangeStmt:
			// The value variable is usually a fresh definition, so its
			// type lives in Defs, not Types — TypeOf checks both.
			if n.Value != nil {
				if t := pass.Info.TypeOf(n.Value); t != nil {
					if name := lockTypeName(t); name != "" {
						pass.Reportf(n.Value.Pos(), "range copies elements carrying sync.%s by value; iterate by index or store pointers", name)
					}
				}
			}
		}
		return true
	})
}

// checkLockCopyExpr flags rhs when it copies an *existing* lock-bearing
// value: a variable read, field selection, pointer dereference, or
// element load. Fresh values (composite literals, zero values, calls
// returning by design) initialize rather than copy.
func checkLockCopyExpr(pass *Pass, rhs ast.Expr) {
	switch ast.Unparen(rhs).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return
	}
	tv, ok := pass.Info.Types[rhs]
	if !ok || tv.Type == nil {
		return
	}
	if name := lockTypeName(tv.Type); name != "" {
		pass.Reportf(rhs.Pos(), "assignment copies a value carrying sync.%s; the copy is a fresh unlocked lock — use a pointer", name)
	}
}

// --- rules 2+3: lockset dataflow over the CFG ------------------------

// lockOp is one Lock/Unlock-family call found in a block.
type lockOp struct {
	key     string // "w:" or "r:" prefix + canonical receiver expression
	acquire bool
	pos     token.Pos
}

// lockState maps held-lock keys to where they were acquired and
// whether every path to this point holds them.
type lockState map[string]lockHold

type lockHold struct {
	pos  token.Pos
	must bool
}

func copyLockState(s lockState) lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func joinLockStates(a, b lockState) lockState {
	out := make(lockState, len(a))
	for k, va := range a {
		if vb, ok := b[k]; ok {
			hold := lockHold{pos: va.pos, must: va.must && vb.must}
			if vb.pos < hold.pos {
				hold.pos = vb.pos
			}
			out[k] = hold
		} else {
			out[k] = lockHold{pos: va.pos, must: false}
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			out[k] = lockHold{pos: vb.pos, must: false}
		}
	}
	return out
}

func equalLockStates(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va != vb {
			return false
		}
	}
	return true
}

// checkLockPaths runs the lockset analysis over one function's CFG and
// reports double-locks and locks held at exit without a deferred
// release.
func checkLockPaths(pass *Pass, fn ast.Node) {
	cfg := pass.CFG(fn)
	ops := make(map[*Block][]lockOp)
	any := false
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			collectLockOps(pass, n, &ops, b)
			if len(ops[b]) > 0 {
				any = true
			}
		}
	}
	if !any {
		return
	}

	reported := make(map[token.Pos]bool)
	transfer := func(b *Block, in lockState) lockState {
		out := copyLockState(in)
		for _, op := range ops[b] {
			if op.acquire {
				if held, ok := out[op.key]; ok && held.must && !reported[op.pos] {
					reported[op.pos] = true
					pass.Reportf(op.pos, "Lock of %s while every path here already holds it — the goroutine deadlocks on itself", op.key[2:])
				}
				out[op.key] = lockHold{pos: op.pos, must: true}
			} else {
				delete(out, op.key)
			}
		}
		return out
	}
	in := ForwardDataflow(cfg, FlowSpec[lockState]{
		Entry:    lockState{},
		Join:     joinLockStates,
		Equal:    equalLockStates,
		Transfer: transfer,
	})

	exitState, ok := in[cfg.Exit]
	if !ok {
		return // exit unreachable (infinite loop): nothing to pair
	}
	deferred := deferredUnlockKeys(pass, cfg)
	keys := make([]string, 0, len(exitState))
	for k := range exitState {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if deferred[k] {
			continue
		}
		hold := exitState[k]
		if reported[hold.pos] {
			continue
		}
		reported[hold.pos] = true
		pass.Reportf(hold.pos, "%s is locked here but not released on every path to return; add the missing Unlock or defer it", k[2:])
	}
}

// collectLockOps appends the Lock/Unlock calls syntactically inside n
// (not descending into function literals, which have their own CFGs)
// to ops[b], in traversal order.
func collectLockOps(pass *Pass, n ast.Node, ops *map[*Block][]lockOp, b *Block) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := lockOpOf(pass, call); ok {
			(*ops)[b] = append((*ops)[b], op)
		}
		return true
	})
}

// lockOpOf classifies a call as a lock acquire/release on a trackable
// receiver. TryLock variants are skipped (the caller branches on the
// result; the lockset is unknowable without path conditions).
func lockOpOf(pass *Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return lockOp{}, false
	}
	var kind string
	var acquire bool
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		kind, acquire = "w:", true
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		kind, acquire = "w:", false
	case "(*sync.RWMutex).RLock":
		kind, acquire = "r:", true
	case "(*sync.RWMutex).RUnlock":
		kind, acquire = "r:", false
	default:
		return lockOp{}, false
	}
	recv, ok := canonicalRecv(sel.X)
	if !ok {
		return lockOp{}, false
	}
	return lockOp{key: kind + recv, acquire: acquire, pos: call.Pos()}, true
}

// canonicalRecv renders a lock receiver as a stable key, accepting
// only identifier/selector chains — a lock reached through a call or
// index has no stable identity across statements.
func canonicalRecv(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := canonicalRecv(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	}
	return "", false
}

// deferredUnlockKeys collects the lock keys released by the function's
// defers, either directly (defer mu.Unlock()) or inside a deferred
// closure.
func deferredUnlockKeys(pass *Pass, cfg *CFG) map[string]bool {
	out := make(map[string]bool)
	record := func(call *ast.CallExpr) {
		if op, ok := lockOpOf(pass, call); ok && !op.acquire {
			out[op.key] = true
		}
	}
	for _, d := range cfg.Defers {
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					record(call)
				}
				return true
			})
			continue
		}
		record(d.Call)
	}
	return out
}
