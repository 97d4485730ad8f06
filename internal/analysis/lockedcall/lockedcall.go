// Package lockedcall defines an analyzer guarding the single-flight
// invariant of the serving and archive tiers: a cache-shard mutex (or
// any sync.Mutex/RWMutex in those packages) protects map and list
// manipulation only — the heavy work it coordinates must happen outside
// the critical section. Concretely, while a mutex is held it forbids:
//
//   - spherical-harmonic synthesis or analysis (sht.Plan methods and the
//     packed entry points), which is O(L^2 * pixels) per field, and point
//     evaluators, O(L^2) per row to build and per step;
//   - chunk I/O and coefficient decode (readChunk / loadChunk /
//     decodeStep and the Read* entry points built on them, at either
//     width);
//   - writing to an http.ResponseWriter (response I/O stalls on slow
//     clients, so a locked write lets one client block a shard);
//   - metric observation and request logging (obs-package calls, sink
//     observe, logRequest, noteCacheOutcome): recording takes label-map
//     locks and log writes serialize on the log mutex, so doing either
//     under a shard lock couples every request on that shard to the
//     observability path's latency;
//   - trace operations (trace-package calls, beginStage, recordStage):
//     span finalization stamps clocks and appends to the parent's child
//     list, and store publication takes the stripe lock, so tracing
//     under a shard lock adds the tracer's latency to the critical
//     section exactly where contention hurts most;
//   - response body encoding (encoding/json Marshal and Encoder.Encode,
//     compress/gzip and compress/flate writer constructors and methods,
//     and the serve tier's body helpers encodeBody, gzipBody and the
//     fill fieldBody that calls them): a
//     field body is O(grid) of formatting and deflate, milliseconds at
//     L = 64, so a fill under the shard lock that keeps it would
//     serialize the whole shard behind one encode.
//
// The fieldCache's getOrLoad documents the intended shape: register a
// flight under the lock, run the load with the lock released, publish
// under the lock again — and count or annotate it after the unlock.
package lockedcall

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"exaclim/internal/analysis/internal/scope"
)

// DefaultPackages scopes the invariant to the lock-disciplined tiers.
const DefaultPackages = "serve,archive"

var pkgs string

var Analyzer = &analysis.Analyzer{
	Name: "lockedcall",
	Doc: "forbid SHT synthesis, chunk decode, ResponseWriter writes, metric observation, " +
		"request logging, trace operations, and response body encoding while holding a mutex " +
		"(the single-flight invariant: heavy work runs outside the lock)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func init() {
	Analyzer.Flags.StringVar(&pkgs, "lockpkgs", DefaultPackages,
		"comma-separated package basenames the lock-discipline invariant binds")
}

// heavyNames lists function/method names that identify chunk I/O and
// decode work regardless of receiver: the archive frame-parsing layer
// and the reader entry points built on it.
var heavyNames = map[string]bool{
	"readChunk": true, "loadChunk": true, "decodeStep": true, "decodeChunk": true,
	"decodeHeader": true, "decodeIndex": true,
	"ReadPacked": true, "ReadPackedF32": true, "ReadPackedInto": true, "ReadPackedRange": true,
	"ReadPackedBlocks": true, "WithSeries": true,
	"ReadField": true, "ReadFieldInto": true, "EachField": true,
}

// shtHeavy lists the sht entry points that cost O(L^2) or more a call:
// the transforms in their method and packed forms, and the point
// evaluators' construction, step and block of steps.
var shtHeavy = map[string]bool{
	"Synthesize": true, "SynthesizeInto": true, "SynthesizeIntoF32": true, "SynthesizePacked": true,
	"Analyze": true, "AnalyzeInto": true, "AnalyzePacked": true,
	"NewPointEvaluator": true, "NewPointBatchEvaluator": true, "NewMeanEvaluator": true, "EvalPacked": true,
	"EvalBlock": true,
}

// obsNames lists the observability helpers forbidden under a lock
// regardless of receiver: the archive reader's sink reporter and the
// serve tier's request-trace writers.
var obsNames = map[string]bool{
	"observe": true, "logRequest": true, "noteCacheOutcome": true,
}

// traceNames lists the serve tier's stage-instrumentation entry points,
// forbidden under a lock by name: they stamp clocks and (when sampled)
// touch the span tree.
var traceNames = map[string]bool{
	"beginStage": true, "recordStage": true,
}

// bodyNames lists the serve tier's response-body encoders and the fill
// that runs them, forbidden under a lock by name.
var bodyNames = map[string]bool{
	"encodeBody": true, "gzipBody": true, "fieldBody": true,
}

// encoderFuncs lists the standard-library package-level functions that
// encode a response body.
var encoderFuncs = map[string]map[string]bool{
	"encoding/json":  {"Marshal": true, "MarshalIndent": true},
	"compress/gzip":  {"NewWriter": true, "NewWriterLevel": true},
	"compress/flate": {"NewWriter": true, "NewWriterDict": true},
}

// bodyEncoding reports whether sel is standard-library body encoding:
// one of encoderFuncs, json.Encoder.Encode, or any method of a
// compress/gzip or compress/flate Writer.
func bodyEncoding(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if p := scope.ImportedPkg(pass, sel.X); p != "" {
		return encoderFuncs[p][sel.Sel.Name]
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch path, name := named.Obj().Pkg().Path(), named.Obj().Name(); path {
	case "compress/gzip", "compress/flate":
		return name == "Writer"
	case "encoding/json":
		return name == "Encoder" && sel.Sel.Name == "Encode"
	}
	return false
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scope.Match(pass, pkgs) {
		return nil, nil
	}
	rw := responseWriterIface(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || scope.InTestFile(pass, fd.Pos()) {
			return
		}
		walkLocked(pass, fd.Body.List, map[string]token.Pos{}, rw)
	})
	return nil, nil
}

// responseWriterIface finds net/http.ResponseWriter among the package's
// imports; nil when the package does not import net/http.
func responseWriterIface(pass *analysis.Pass) *types.Interface {
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() != "net/http" {
			continue
		}
		if obj, ok := imp.Scope().Lookup("ResponseWriter").(*types.TypeName); ok {
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				return iface
			}
		}
	}
	return nil
}

// walkLocked scans a statement list tracking which mutexes are held. It
// returns the held set at the list's fall-through end and whether the
// list always terminates (returns, branches, or panics) instead of
// falling through. Branch exits are joined by union: a mutex counts as
// held after an if/switch when any non-terminating path leaves it held
// — sound (no missed heavy calls) at the price of flagging paths the
// runtime may never pair; an unlock on every branch clears the state.
func walkLocked(pass *analysis.Pass, stmts []ast.Stmt, held map[string]token.Pos, rw *types.Interface) (map[string]token.Pos, bool) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if mu, kind := mutexOp(pass, call); mu != "" {
					if kind == opLock {
						held[mu] = call.Pos()
					} else {
						delete(held, mu)
					}
					continue
				}
			}
		case *ast.DeferStmt:
			if mu, kind := mutexOp(pass, s.Call); mu != "" && kind == opUnlock {
				// The lock stays held to the end of the function: keep
				// scanning the remainder as locked. The defer itself is
				// exempt.
				continue
			}
		}
		if len(held) > 0 {
			reportHeavy(pass, st, held, rw)
		}
		switch s := st.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			return held, true
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && neverReturns(call) {
				return held, true
			}
		case *ast.BlockStmt:
			out, term := walkLocked(pass, s.List, clone(held), rw)
			if term {
				return held, true
			}
			held = out
		case *ast.IfStmt:
			thenOut, thenTerm := walkLocked(pass, s.Body.List, clone(held), rw)
			elseOut, elseTerm := clone(held), false
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					elseOut, elseTerm = walkLocked(pass, e.List, clone(held), rw)
				case *ast.IfStmt:
					elseOut, elseTerm = walkLocked(pass, []ast.Stmt{e}, clone(held), rw)
				}
			}
			switch {
			case thenTerm && elseTerm:
				return held, true
			case thenTerm:
				held = elseOut
			case elseTerm:
				held = thenOut
			default:
				held = union(thenOut, elseOut)
			}
		case *ast.ForStmt:
			out, _ := walkLocked(pass, s.Body.List, clone(held), rw)
			held = union(held, out) // body may run zero times
		case *ast.RangeStmt:
			out, _ := walkLocked(pass, s.Body.List, clone(held), rw)
			held = union(held, out)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var body *ast.BlockStmt
			switch s := st.(type) {
			case *ast.SwitchStmt:
				body = s.Body
			case *ast.TypeSwitchStmt:
				body = s.Body
			case *ast.SelectStmt:
				body = s.Body
			}
			out := clone(held) // no-default fall-through keeps the state
			for _, c := range body.List {
				var list []ast.Stmt
				switch cc := c.(type) {
				case *ast.CaseClause:
					list = cc.Body
				case *ast.CommClause:
					list = cc.Body
				}
				caseOut, caseTerm := walkLocked(pass, list, clone(held), rw)
				if !caseTerm {
					out = union(out, caseOut)
				}
			}
			held = out
		}
	}
	return held, false
}

func clone(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func union(a, b map[string]token.Pos) map[string]token.Pos {
	out := clone(a)
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// neverReturns matches panic and conventional fatal helpers ending a
// path.
func neverReturns(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic" || fun.Name == "fatal"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "Fatalln", "Goexit", "Panic", "Panicf", "Panicln":
			return true
		}
	}
	return false
}

// reportHeavy flags heavy calls directly inside st (function literals
// are skipped: they run later, typically after the unlock).
func reportHeavy(pass *analysis.Pass, st ast.Stmt, held map[string]token.Pos, rw *types.Interface) {
	// Nested statement lists are scanned by walkLocked's recursion; here
	// only the statement's own expressions matter (conditions, calls).
	switch st.(type) {
	case *ast.BlockStmt:
		return
	}
	ast.Inspect(st, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.BlockStmt:
			return false
		case *ast.CallExpr:
			if name, why := heavyCall(pass, n, rw); name != "" {
				mu := anyKey(held)
				pass.Reportf(n.Pos(),
					"%s (%s) while holding %s; move heavy work outside the lock (single-flight invariant)",
					name, why, mu)
			}
		}
		return true
	})
}

func anyKey(m map[string]token.Pos) string {
	best := ""
	for k := range m {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// heavyCall classifies call; it returns the printable callee and the
// reason, or "" when the call is fine.
func heavyCall(pass *analysis.Pass, call *ast.CallExpr, rw *types.Interface) (name, why string) {
	callee := call.Fun
	if ix, ok := callee.(*ast.IndexExpr); ok {
		callee = ix.X // an explicitly instantiated generic: f[E](...)
	}
	switch fun := callee.(type) {
	case *ast.SelectorExpr:
		sel := fun.Sel.Name
		// Response I/O: a method on an http.ResponseWriter.
		if rw != nil {
			if t := pass.TypesInfo.TypeOf(fun.X); t != nil && types.Implements(t, rw) {
				if sel == "Write" || sel == "WriteHeader" {
					return exprString(pass, fun), "response write"
				}
			}
		}
		// SHT transforms: methods of the sht package's types, or its
		// package-level functions.
		if shtHeavy[sel] {
			if fromPackage(pass, fun, "sht") {
				return exprString(pass, fun), "SHT transform"
			}
		}
		// Metric recording: any call into the obs package (Counter.Inc,
		// Histogram.Observe, Sink.Add, registration, exposition).
		if fromPackage(pass, fun, "obs") {
			return exprString(pass, fun), "metric observation"
		}
		// Tracing: any call into the trace package (span End/SetAttr,
		// store Add, trace.New) runs the tracer inside the critical
		// section.
		if fromPackage(pass, fun, "trace") {
			return exprString(pass, fun), "trace operation"
		}
		if obsNames[sel] {
			return exprString(pass, fun), "metric observation or request logging"
		}
		if traceNames[sel] {
			return exprString(pass, fun), "trace operation"
		}
		if heavyNames[sel] {
			return exprString(pass, fun), "chunk I/O or decode"
		}
		if bodyNames[sel] || bodyEncoding(pass, fun) {
			return exprString(pass, fun), "response body encoding"
		}
	case *ast.Ident:
		if obsNames[fun.Name] {
			return fun.Name, "metric observation or request logging"
		}
		if traceNames[fun.Name] {
			return fun.Name, "trace operation"
		}
		if heavyNames[fun.Name] {
			return fun.Name, "chunk I/O or decode"
		}
		if bodyNames[fun.Name] {
			return fun.Name, "response body encoding"
		}
	}
	// Any call handing a ResponseWriter onward (http.Error, writeJSON)
	// does response I/O on its behalf.
	if rw != nil {
		for _, arg := range call.Args {
			if t := pass.TypesInfo.TypeOf(arg); t != nil && types.Implements(t, rw) {
				return exprString(pass, call.Fun), "response write via argument"
			}
		}
	}
	return "", ""
}

// fromPackage reports whether the selector resolves into a package
// whose import path is base or ends in "/"+base — a method on one of
// its types (possibly through an interface it declares) or one of its
// package-level functions.
func fromPackage(pass *analysis.Pass, sel *ast.SelectorExpr, base string) bool {
	match := func(p string) bool {
		return p == base || len(p) > len(base)+1 && p[len(p)-len(base)-1:] == "/"+base
	}
	if p := scope.ImportedPkg(pass, sel.X); p != "" {
		return match(p)
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return match(named.Obj().Pkg().Path())
}

const (
	opLock = iota
	opUnlock
)

// mutexOp classifies call as a Lock/RLock or Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex, returning the receiver's printed form as
// the lock identity.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (string, int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	var kind int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return "", 0
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", 0
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" ||
		(obj.Name() != "Mutex" && obj.Name() != "RWMutex") {
		return "", 0
	}
	return exprString(pass, sel.X), kind
}

// exprString renders a (small) expression for diagnostics.
func exprString(pass *analysis.Pass, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, e); err != nil {
		return "?"
	}
	return buf.String()
}
