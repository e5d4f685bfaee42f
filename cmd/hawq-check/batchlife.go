package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerBatchlife tracks the lifetime of pooled batches
// (Checker.BatchPkg, default internal/types: GetBatch/PutBatch, the
// encoded GetVecBatch/PutVecBatch pair, and the arena Row views into a
// Batch) inside each function and reports the three misuse classes
// that corrupt rows at a distance — the bug class the chaos
// pool-balance gauge only catches after the fact:
//
//   - use-after-put: any use of a *Batch after an unconditional
//     PutBatch on the same variable in the same statement sequence;
//   - double-put: a second PutBatch on the same variable without an
//     intervening reassignment, including an explicit put when a
//     deferred put is already pending;
//   - escaping arena view: a Row obtained from Batch.Row/AddRow that is
//     used after the batch is released, or returned while a deferred
//     put is pending — retain rows past release with Row.Clone. A
//     column Vector taken out of VecBatch.Cols is a view in the same
//     sense: once the batch is back in the pool its next user refills
//     the vector's slices, or — when the vector was shared by the block
//     cache — the slot now holds someone else's column. So is a typed
//     slice read out of such a column (vb.Cols[i].Ints), which no longer
//     even says whose it is.
//
// The analysis is deliberately intraprocedural and source-ordered:
// conditional puts (inside if/for/select arms) only poison their own
// branch, and handing a batch to another function or channel transfers
// ownership without releasing it. Transfers that alias a released
// batch across functions are out of scope (a documented soundness
// limit).
var analyzerBatchlife = &Analyzer{
	Name: nameBatchlife,
	Doc:  "use-after-put, double puts, and arena row views escaping a pooled Batch or VecBatch release",
	Run:  runBatchlife,
}

func runBatchlife(c *Checker, pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			bl := &batchLifeScan{c: c, pkg: pkg,
				released:  map[types.Object]bool{},
				deferPut:  map[types.Object]bool{},
				rowOwner:  map[types.Object]types.Object{},
				rowCloned: map[types.Object]bool{},
			}
			bl.block(fd.Body.List)
			// Function literals get their own scan: their bodies run at
			// another time, so lifetimes do not interleave linearly.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					inner := &batchLifeScan{c: c, pkg: pkg,
						released:  map[types.Object]bool{},
						deferPut:  map[types.Object]bool{},
						rowOwner:  map[types.Object]types.Object{},
						rowCloned: map[types.Object]bool{},
					}
					inner.block(lit.Body.List)
					return false
				}
				return true
			})
		}
	}
}

// batchLifeScan is the per-function state of the linear value-flow
// walk.
type batchLifeScan struct {
	c   *Checker
	pkg *Package
	// released marks batch variables after an unconditional PutBatch.
	released map[types.Object]bool
	// deferPut marks batch variables with a pending deferred PutBatch.
	deferPut map[types.Object]bool
	// rowOwner maps a row-view variable to the batch it aliases.
	rowOwner map[types.Object]types.Object
	// rowCloned marks row variables reassigned from Clone (safe).
	rowCloned map[types.Object]bool
}

// block walks one statement sequence in source order; conditional
// sub-blocks run on a snapshot so their releases do not poison the
// fall-through path.
func (b *batchLifeScan) block(stmts []ast.Stmt) {
	for _, st := range stmts {
		b.stmt(st)
	}
}

func (b *batchLifeScan) stmt(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if b.putCall(s.X, false) {
			return
		}
		b.checkUses(s.X)
	case *ast.DeferStmt:
		if call, ok := obligationCall(b.pkg, s.Call, b.c.BatchPkg); ok {
			if obj := argObject(b.pkg, s.Call); obj != nil {
				if b.released[obj] || b.deferPut[obj] {
					b.report(s.Call.Pos(), fmt.Sprintf("deferred %s(%s) duplicates an earlier put; the pool would hand the arena to two owners", putNameFor(obj.Type()), nameOf(obj)))
				}
				b.deferPut[obj] = true
			}
			_ = call
			return
		}
		b.checkUses(s.Call)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if !b.putCall(rhs, false) {
				b.checkUses(rhs)
			}
		}
		for i, lhs := range s.Lhs {
			obj := lhsObject(b.pkg, lhs)
			if obj == nil {
				continue
			}
			if isBatchPtr(obj.Type(), b.c.BatchPkg) {
				// Reassignment gives the variable a fresh, live batch.
				delete(b.released, obj)
				delete(b.deferPut, obj)
			}
			if !isViewType(obj.Type(), b.c.BatchPkg) && !isSlice(obj.Type()) {
				continue
			}
			if i < len(s.Rhs) {
				b.trackRow(obj, s.Rhs[i])
			} else if len(s.Rhs) == 1 {
				b.trackRow(obj, s.Rhs[0])
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			b.checkUses(r)
			if obj := exprObject(b.pkg, r); obj != nil {
				if owner, ok := b.rowOwner[obj]; ok && !b.rowCloned[obj] && b.deferPut[owner] {
					b.report(r.Pos(), fmt.Sprintf("returning arena row %s while %s(%s) is deferred; the view dies with the batch — Clone it first", nameOf(obj), putNameFor(owner.Type()), nameOf(owner)))
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.checkUses(s.Cond)
		b.branch(s.Body.List)
		if s.Else != nil {
			b.branch([]ast.Stmt{s.Else})
		}
	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Cond != nil {
			b.checkUses(s.Cond)
		}
		b.branch(s.Body.List)
	case *ast.RangeStmt:
		b.checkUses(s.X)
		b.branch(s.Body.List)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				b.branch(cc.Body)
				return false
			}
			if cc, ok := n.(*ast.CommClause); ok {
				b.branch(cc.Body)
				return false
			}
			return true
		})
	case *ast.BlockStmt:
		b.block(s.List)
	case *ast.GoStmt:
		b.checkUses(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						b.checkUses(v)
					}
					for i, name := range vs.Names {
						if obj := b.pkg.Info.Defs[name]; obj != nil && isViewType(obj.Type(), b.c.BatchPkg) && i < len(vs.Values) {
							b.trackRow(obj, vs.Values[i])
						}
					}
				}
			}
		}
	default:
		if st != nil {
			b.checkUses(st)
		}
	}
}

// branch runs a conditional sub-block on a snapshot of the release
// state: puts inside it poison only the branch, but uses inside it
// still see releases from before the branch.
func (b *batchLifeScan) branch(stmts []ast.Stmt) {
	saveRel := map[types.Object]bool{}
	for k, v := range b.released {
		saveRel[k] = v
	}
	saveDef := map[types.Object]bool{}
	for k, v := range b.deferPut {
		saveDef[k] = v
	}
	b.block(stmts)
	b.released = saveRel
	b.deferPut = saveDef
}

// putCall handles a PutBatch call; it reports double puts and marks
// the argument released. Returns false when the expression is not a
// put.
func (b *batchLifeScan) putCall(e ast.Expr, deferred bool) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if _, isPut := obligationCall(b.pkg, call, b.c.BatchPkg); !isPut {
		return false
	}
	obj := argObject(b.pkg, call)
	if obj == nil {
		return true
	}
	if b.released[obj] {
		b.report(call.Pos(), fmt.Sprintf("%s(%s) called twice; the second put hands the same arena to two future owners (the pool panics at runtime)", putNameFor(obj.Type()), nameOf(obj)))
	} else if b.deferPut[obj] {
		b.report(call.Pos(), fmt.Sprintf("explicit %s(%s) with a deferred put pending; the deferred call becomes a double put", putNameFor(obj.Type()), nameOf(obj)))
	}
	b.released[obj] = true
	return true
}

// checkUses flags reads of released batches and of row views whose
// batch has been released.
func (b *batchLifeScan) checkUses(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := b.pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if b.released[obj] {
			b.report(id.Pos(), fmt.Sprintf("%s used after %s; the arena may already belong to another operator", id.Name, putNameFor(obj.Type())))
			return true
		}
		if owner, ok := b.rowOwner[obj]; ok && !b.rowCloned[obj] && b.released[owner] {
			if putNameFor(owner.Type()) == "PutVecBatch" {
				b.report(id.Pos(), fmt.Sprintf("column vector %s used after PutVecBatch(%s); the batch's next user owns that slot", id.Name, nameOf(owner)))
				return true
			}
			b.report(id.Pos(), fmt.Sprintf("arena row %s used after %s(%s); retain rows past release with Clone", id.Name, putNameFor(owner.Type()), nameOf(owner)))
		}
		return true
	})
}

// trackRow records that a view-typed variable aliases a pooled batch —
// a row of its arena (b.Row(i) / b.AddRow()), or a column vector of an
// encoded batch (vb.Cols[i], &vb.Cols[i]) — or is a safe Clone.
func (b *batchLifeScan) trackRow(obj types.Object, rhs ast.Expr) {
	rhs = ast.Unparen(rhs)
	if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
		rhs = ast.Unparen(u.X)
	}
	// A field read out of a column (vb.Cols[i].Ints) aliases what the
	// column does.
	if sel, ok := rhs.(*ast.SelectorExpr); ok {
		if ix, ok := ast.Unparen(sel.X).(*ast.IndexExpr); ok && isSlice(b.pkg.Info.TypeOf(sel)) {
			rhs = ix
		}
	}
	if ix, ok := rhs.(*ast.IndexExpr); ok {
		if sel, ok := ast.Unparen(ix.X).(*ast.SelectorExpr); ok && sel.Sel.Name == "Cols" {
			if recv := exprObject(b.pkg, sel.X); recv != nil && isBatchPtr(recv.Type(), b.c.BatchPkg) {
				b.rowOwner[obj] = recv
				delete(b.rowCloned, obj)
			}
		}
		return
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Row", "AddRow":
		if recv := exprObject(b.pkg, sel.X); recv != nil && isBatchPtr(recv.Type(), b.c.BatchPkg) {
			b.rowOwner[obj] = recv
			delete(b.rowCloned, obj)
		}
	case "Clone":
		b.rowCloned[obj] = true
		delete(b.rowOwner, obj)
	}
}

func (b *batchLifeScan) report(pos token.Pos, msg string) {
	b.c.report(b.pkg, pos, nameBatchlife, msg)
}

// nameOf returns a variable's name for diagnostics.
func nameOf(obj types.Object) string { return obj.Name() }

// obligationCall reports whether call is batchpkg.PutBatch(x) or
// batchpkg.PutVecBatch(x) — the two pool releases batchlife tracks.
func obligationCall(pkg *Package, call *ast.CallExpr, batchPkg string) (*ast.CallExpr, bool) {
	fn, ok := calleeObject(pkg.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, false
	}
	if fn.Pkg().Path() != batchPkg || (fn.Name() != "PutBatch" && fn.Name() != "PutVecBatch") {
		return nil, false
	}
	return call, true
}

// argObject resolves the first call argument to its variable object.
func argObject(pkg *Package, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	return exprObject(pkg, call.Args[0])
}

// exprObject resolves a plain identifier expression to its object.
func exprObject(pkg *Package, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj, ok := pkg.Info.Uses[id]; ok {
		return obj
	}
	return pkg.Info.Defs[id]
}

// lhsObject resolves an assignment target identifier to its object.
func lhsObject(pkg *Package, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

// isBatchPtr reports whether t is *batchpkg.Batch or
// *batchpkg.VecBatch — both pooled with the same single-owner
// discipline.
func isBatchPtr(t types.Type, batchPkg string) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == batchPkg && (obj.Name() == "Batch" || obj.Name() == "VecBatch")
}

// putNameFor returns the pool-release function matching a pooled batch
// variable's type, for diagnostics.
func putNameFor(t types.Type) string {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok && named.Obj().Name() == "VecBatch" {
			return "PutVecBatch"
		}
	}
	return "PutBatch"
}

// isSlice reports whether t is a slice: what a column's typed storage
// is read out as.
func isSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// isViewType reports whether t can alias a pooled batch's memory:
// batchpkg.Row, or batchpkg.Vector by value or by pointer.
func isViewType(t types.Type, batchPkg string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == batchPkg && (obj.Name() == "Row" || obj.Name() == "Vector")
}
