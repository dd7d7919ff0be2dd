package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// HotAlloc returns the analyzer that statically backs the
// hier.TestSteadyStateAllocatesNothing 0 allocs/cycle pin: inside any function
// reachable from the sim.Component / sim.Quiescent hot path (Eval,
// Commit, NextEvent, SkipTo, and the kernel's Step/Run), it flags the
// constructs that heap-allocate or hash on every cycle — make/new,
// append growth, reference composite literals, closures, fmt calls,
// interface boxing conversions, string concatenation, and map
// iteration. Boxing is flagged where it is spelled out, as an any(x) or
// other conversion to an interface type, and where it is implicit, as a
// concrete value assigned to an interface-typed variable, field or
// package-level any.
//
// Hot roots are recognized structurally, not by import: a method named
// Eval/Commit/NextEvent/SkipTo whose receiver also declares both Eval
// and Commit (i.e. is Component-shaped), any method of a type that a
// Component-shaped type of any linted package embeds (a record such as
// sim.Activity), or a Step/Run method on a type named Kernel.
// Reachability is the static call graph within the package, with
// interface calls resolved to every local implementation.
func HotAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc:  "forbid per-cycle heap allocations and map hashing in functions reachable from the simulation hot path",
		Run:  runHotAlloc,
	}
}

// hotRootNames are the hot-path entry methods of the kernel protocol.
var hotRootNames = map[string]bool{
	"Eval": true, "Commit": true, "NextEvent": true, "SkipTo": true,
}

func runHotAlloc(pass *Pass) error {
	decls := packageFuncDecls(pass)

	// Seed the worklist with the hot roots.
	type item struct {
		fn   *types.Func
		root string // display name of the root that made it hot
	}
	var work []item
	records := embeddedRecords(pass)
	for fn := range decls {
		recv := recvNamed(fn)
		if recv == nil {
			continue
		}
		switch {
		case hotRootNames[fn.Name()] && componentShaped(recv), records[recv.Obj().Name()]:
			work = append(work, item{fn, recv.Obj().Name() + "." + fn.Name()})
		case (fn.Name() == "Step" || fn.Name() == "Run") && recv.Obj().Name() == "Kernel":
			work = append(work, item{fn, recv.Obj().Name() + "." + fn.Name()})
		}
	}
	sort.Slice(work, func(i, j int) bool { return work[i].root < work[j].root })

	// Breadth-first closure over package-local static calls, keeping the
	// first root that reached each function for the diagnostic text.
	rootOf := map[*types.Func]string{}
	for len(work) > 0 {
		it := work[0]
		work = work[1:]
		if _, seen := rootOf[it.fn]; seen {
			continue
		}
		rootOf[it.fn] = it.root
		for _, callee := range localCallees(pass, decls[it.fn], decls) {
			if _, seen := rootOf[callee]; !seen {
				work = append(work, item{callee, it.root})
			}
		}
	}

	for fn, decl := range decls {
		root, hot := rootOf[fn]
		if !hot {
			continue
		}
		checkHotBody(pass, decl, fn, root)
	}
	return nil
}

// packageFuncDecls maps every function object defined in the package to
// its declaration.
func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// recvNamed returns the named receiver type of a method (nil for plain
// functions), unwrapping a pointer receiver.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// componentShaped reports whether the type's method set contains both
// Eval and Commit — the structural signature of a sim.Component.
func componentShaped(named *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	return ms.Lookup(named.Obj().Pkg(), "Eval") != nil && ms.Lookup(named.Obj().Pkg(), "Commit") != nil
}

// embeddedRecords names this package's types whose methods a
// Component-shaped type of any package in the run has by embedding,
// matched by path and name: another package imports its own view.
func embeddedRecords(pass *Pass) map[string]bool {
	records := map[string]bool{}
	for _, pkg := range pass.Program {
		for _, name := range pkg.Types.Scope().Names() {
			named, ok := pkg.Types.Scope().Lookup(name).Type().(*types.Named)
			if !ok || !componentShaped(named) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ms.Len(); i++ {
				r := recvNamed(ms.At(i).Obj().(*types.Func))
				if len(ms.At(i).Index()) > 1 && r != nil && r.Obj().Pkg().Path() == pass.Pkg.Path() {
					records[r.Obj().Name()] = true
				}
			}
		}
	}
	return records
}

// localCallees resolves the static callees of decl that are defined in
// this package. Calls through interface methods fan out to every local
// concrete method implementing them.
func localCallees(pass *Pass, decl *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) []*types.Func {
	var out []*types.Func
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var obj types.Object
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			obj = pass.Info.Uses[fun]
		case *ast.SelectorExpr:
			obj = pass.Info.Uses[fun.Sel]
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			return true
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				// Dynamic dispatch: every local method with this name on
				// a type implementing the interface is a possible callee.
				for cand := range decls {
					if cand.Name() != fn.Name() {
						continue
					}
					named := recvNamed(cand)
					if named == nil {
						continue
					}
					if types.Implements(types.NewPointer(named), iface) || types.Implements(named, iface) {
						out = append(out, cand)
					}
				}
				return true
			}
		}
		if fn.Pkg() == pass.Pkg {
			if _, local := decls[fn]; local {
				out = append(out, fn)
			}
		}
		return true
	})
	return out
}

// checkHotBody flags every allocation-shaped construct in one hot
// function.
func checkHotBody(pass *Pass, decl *ast.FuncDecl, fn *types.Func, root string) {
	where := fmt.Sprintf("%s (hot: reachable from %s)", fn.Name(), root)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			pass.Report(node.Pos(), "closure literal in %s allocates per construction", where)
			return false // the closure body runs elsewhere
		case *ast.CallExpr:
			checkHotCall(pass, node, where)
		case *ast.CompositeLit:
			t := pass.Info.Types[node].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Report(node.Pos(), "slice literal in %s allocates", where)
			case *types.Map:
				pass.Report(node.Pos(), "map literal in %s allocates", where)
			}
		case *ast.UnaryExpr:
			if node.Op.String() == "&" {
				if _, ok := node.X.(*ast.CompositeLit); ok {
					pass.Report(node.Pos(), "&composite literal in %s escapes to the heap", where)
				}
			}
		case *ast.RangeStmt:
			if t := pass.Info.Types[node.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Report(node.Pos(), "map iteration in %s hashes every cycle and has nondeterministic order", where)
				}
			}
		case *ast.BinaryExpr:
			if node.Op.String() == "+" {
				if t := pass.Info.Types[node].Type; t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Report(node.Pos(), "string concatenation in %s allocates", where)
					}
				}
			}
		case *ast.GoStmt:
			pass.Report(node.Pos(), "goroutine launch in %s allocates and breaks cycle determinism", where)
		case *ast.AssignStmt:
			if len(node.Lhs) == len(node.Rhs) {
				for i, lhs := range node.Lhs {
					checkHotBoxing(pass, pass.Info.Types[lhs].Type, node.Rhs[i], where)
				}
			}
		case *ast.ValueSpec:
			if node.Type != nil && len(node.Names) == len(node.Values) {
				for _, value := range node.Values {
					checkHotBoxing(pass, pass.Info.Types[node.Type].Type, value, where)
				}
			}
		}
		return true
	})
}

// checkHotBoxing flags a concrete value stored where an interface is
// held: the store boxes it.
func checkHotBoxing(pass *Pass, dst types.Type, value ast.Expr, where string) {
	tv, ok := pass.Info.Types[value]
	if dst == nil || !ok || tv.IsNil() || !types.IsInterface(dst) || types.IsInterface(tv.Type) {
		return
	}
	pass.Report(value.Pos(), "assignment to an interface in %s boxes its value", where)
}

func checkHotCall(pass *Pass, call *ast.CallExpr, where string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := pass.Info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Report(call.Pos(), "make in %s allocates", where)
			case "new":
				pass.Report(call.Pos(), "new in %s allocates", where)
			case "append":
				pass.Report(call.Pos(), "append in %s may grow its backing array", where)
			}
		}
	case *ast.SelectorExpr:
		obj := pass.Info.Uses[fun.Sel]
		if f, ok := obj.(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
			pass.Report(call.Pos(), "fmt.%s in %s allocates and boxes its arguments", f.Name(), where)
		}
	}
	// Explicit interface conversion: Iface(x) boxes x.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && len(call.Args) == 1 {
			if at := pass.Info.Types[call.Args[0]].Type; at != nil {
				if _, argIface := at.Underlying().(*types.Interface); !argIface {
					pass.Report(call.Pos(), "interface conversion in %s boxes its operand", where)
				}
			}
		}
	}
}
