package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// This file is the shared save/load analysis behind the codecsym and
// snapcover checkers. It models every function that touches the snapshot
// codec as an ordered tree of stream operations:
//
//   - data ops: the codec.Writer / codec.Reader primitives (Tag, Expect,
//     U64, I64, Int, Bool, F64, F64s, Bytes, String; the reader's
//     F64sInto decodes what F64s wrote and counts as F64s), with the tag literal
//     when it is a string constant and a best-effort field-name hint
//     (w.I64(int64(f.sent)) hints "sent"; f.sent = r.I64() hints "sent").
//   - call ops: calls that pass the stream to another function
//     (saveParams(w, f.P), eventq.SaveTimer(w, f.paceEv)).
//   - loop / branch / opt nodes wrapping the ops of for/range bodies and
//     if/switch alternatives, so conditional sections line up structurally.
//
// Sequences are normalized (empty alternatives pruned, guard-style
// branches rewritten as optional runs, early returns folded into
// alternatives) and then save roots — functions whose first op is
// w.Tag("...") — are paired with the load functions whose first op is
// r.Expect of the same literal. A pair matches when the two op trees
// mirror one-to-one: Tag against Expect with equal literals, primitive
// against same-kind primitive (with field hints agreeing when both sides
// have one), helper call against helper call with the helpers' own
// sequences matching recursively, loops against loops, and branches
// against branches alternative by alternative.
//
// Err()/Fail()/Len()/Finish() are bookkeeping, not stream data, and are
// invisible here. Function literals are skipped: a closure's body does not
// execute at its definition point in the stream.

// writerDataOps and readerDataOps are the codec primitives, by method name.
var writerDataOps = map[string]bool{
	"Tag": true, "U64": true, "I64": true, "Int": true, "Bool": true,
	"F64": true, "F64s": true, "Bytes": true, "String": true,
}

var readerDataOps = map[string]bool{
	"Expect": true, "U64": true, "I64": true, "Int": true, "Bool": true,
	"F64": true, "F64s": true, "F64sInto": true, "Bytes": true, "String": true,
}

// Structural node kinds, disjoint from the data-op method names.
const (
	opCall   = "call"
	opLoop   = "loop"
	opBranch = "branch"
	opOpt    = "opt"
)

// sop is one node of a stream-operation tree.
type sop struct {
	kind   string      // data-op method name or a structural kind
	lit    string      // Tag/Expect literal when constant
	hint   string      // field-name hint for transposition detection
	callee *types.Func // static callee for opCall; nil = dynamic
	pos    token.Pos
	alts   [][]sop // opBranch: one per alternative; opLoop/opOpt: alts[0]
}

func isDataOp(kind string) bool {
	switch kind {
	case opCall, opLoop, opBranch, opOpt:
		return false
	}
	return true
}

// Stream sides. A function's side is the union of the ops it contains;
// pure save helpers are sideWriter, pure load helpers sideReader.
const (
	sideNone   = 0
	sideWriter = 1
	sideReader = 2
)

// namedKey renders the "importpath.TypeName" key of t, unwrapping one
// pointer level; "" for unnamed or builtin types.
func namedKey(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return typeKey(n.Obj().Pkg().Path(), n.Obj().Name())
}

// shortFuncName renders fn compactly for diagnostics: pkg.Type.Method.
func shortFuncName(fn *types.Func) string {
	if _, typeName, ok := recvNamed(fn); ok && fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + typeName + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// declFuncs returns every function declaration with a body, in
// deterministic (package, file, declaration) order.
func declFuncs(prog *Program) []*funcNode {
	var out []*funcNode
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					out = append(out, &funcNode{fn: fn, decl: fd, pkg: pkg})
				}
			}
		}
	}
	return out
}

// fieldHint extracts the rightmost field selector from an expression, the
// heuristic identity used to catch transposed same-type reads: it unwraps
// conversions, unary ops, indexing, and dereferences, and stops at the
// first selector that is not a package qualifier. "" when the expression
// carries no field identity (locals, len(...), arithmetic).
func fieldHint(info *types.Info, e ast.Expr) string {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.CallExpr:
			// Unwrap single-argument conversions only; builtin and helper
			// calls hide the field identity.
			if tv, ok := info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
				e = v.Args[0]
				continue
			}
			return ""
		case *ast.SelectorExpr:
			if id, ok := v.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return ""
				}
			}
			return v.Sel.Name
		default:
			return ""
		}
	}
}

// seqExtractor builds the raw op tree of one function body.
type seqExtractor struct {
	pkg       *Package
	writerKey string // "importpath.Type" of the codec writer
	readerKey string
	side      int // accumulated stream sides seen
}

func (x *seqExtractor) streamSide(t types.Type) int {
	switch namedKey(t) {
	case x.writerKey:
		return sideWriter
	case x.readerKey:
		return sideReader
	}
	return sideNone
}

// stmts extracts a statement list. A guard of the form
//
//	if cond { ...; return }   // or panic/break/continue
//	rest...
//
// is folded into branch{[then], [rest]}: on the guard path the trailing
// ops never execute, which is exactly what a reader early-return on a
// false presence flag means.
func (x *seqExtractor) stmts(list []ast.Stmt) []sop {
	var out []sop
	for i, s := range list {
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Else == nil && terminates(ifs.Body) {
			out = append(out, x.optStmt(ifs.Init)...)
			out = append(out, x.nodeOps(ifs.Cond)...)
			thenOps := x.stmts(ifs.Body.List)
			restOps := x.stmts(list[i+1:])
			return append(out, sop{kind: opBranch, pos: ifs.Pos(), alts: [][]sop{thenOps, restOps}})
		}
		out = append(out, x.stmt(s)...)
	}
	return out
}

// terminates reports whether the block ends by leaving the enclosing
// statement list: return, panic, break, continue, or goto.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && isIdentNamed(call.Fun, "panic")
	}
	return false
}

func (x *seqExtractor) optStmt(s ast.Stmt) []sop {
	if s == nil {
		return nil
	}
	return x.stmt(s)
}

func (x *seqExtractor) stmt(s ast.Stmt) []sop {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return x.stmts(s.List)
	case *ast.IfStmt:
		out := x.optStmt(s.Init)
		out = append(out, x.nodeOps(s.Cond)...)
		thenOps := x.stmts(s.Body.List)
		var elseOps []sop
		if s.Else != nil {
			elseOps = x.stmt(s.Else)
		}
		return append(out, sop{kind: opBranch, pos: s.Pos(), alts: [][]sop{thenOps, elseOps}})
	case *ast.ForStmt:
		out := x.optStmt(s.Init)
		out = append(out, x.nodeOps(s.Cond)...)
		body := x.stmts(s.Body.List)
		body = append(body, x.optStmt(s.Post)...)
		return append(out, sop{kind: opLoop, pos: s.Pos(), alts: [][]sop{body}})
	case *ast.RangeStmt:
		out := x.nodeOps(s.X)
		return append(out, sop{kind: opLoop, pos: s.Pos(), alts: [][]sop{x.stmts(s.Body.List)}})
	case *ast.SwitchStmt:
		out := x.optStmt(s.Init)
		out = append(out, x.nodeOps(s.Tag)...)
		return append(out, x.caseAlts(s.Pos(), s.Body.List, true)...)
	case *ast.TypeSwitchStmt:
		out := x.optStmt(s.Init)
		out = append(out, x.optStmt(s.Assign)...)
		return append(out, x.caseAlts(s.Pos(), s.Body.List, false)...)
	case *ast.LabeledStmt:
		return x.stmt(s.Stmt)
	case *ast.AssignStmt:
		return x.assignOps(s)
	default:
		return x.nodeOps(s)
	}
}

// caseAlts turns switch clauses into a branch node; a switch without a
// default gains an implicit empty alternative (execution may skip it).
func (x *seqExtractor) caseAlts(pos token.Pos, clauses []ast.Stmt, withExprs bool) []sop {
	var alts [][]sop
	hasDefault := false
	for _, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		var alt []sop
		if withExprs {
			for _, e := range cc.List {
				alt = append(alt, x.nodeOps(e)...)
			}
		}
		alt = append(alt, x.stmts(cc.Body)...)
		alts = append(alts, alt)
	}
	if !hasDefault {
		alts = append(alts, nil)
	}
	return []sop{{kind: opBranch, pos: pos, alts: alts}}
}

// assignOps extracts an assignment and, for a single-target assignment
// whose right side produced exactly one data op, stamps the target's
// field name onto it: f.sent = r.I64() reads *into* sent.
func (x *seqExtractor) assignOps(s *ast.AssignStmt) []sop {
	ops := x.nodeOps(s)
	if len(s.Lhs) != 1 {
		return ops
	}
	hint := fieldHint(x.pkg.Info, s.Lhs[0])
	if hint == "" {
		return ops
	}
	di, n := -1, 0
	for i := range ops {
		if isDataOp(ops[i].kind) {
			di, n = i, n+1
		}
	}
	if n == 1 && ops[di].hint == "" {
		ops[di].hint = hint
	}
	return ops
}

// nodeOps collects the stream ops of an arbitrary node in source order,
// skipping function-literal bodies.
func (x *seqExtractor) nodeOps(n ast.Node) []sop {
	if n == nil {
		return nil
	}
	var out []sop
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			if op, ok := x.callOp(call); ok {
				out = append(out, op)
			}
		}
		return true
	})
	return out
}

// callOp classifies one call: a codec data op, a helper call that the
// stream flows into, or neither.
func (x *seqExtractor) callOp(call *ast.CallExpr) (sop, bool) {
	info := x.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return sop{}, false // conversion
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if side := x.streamSide(info.TypeOf(sel.X)); side != sideNone {
			name := sel.Sel.Name
			ops := writerDataOps
			if side == sideReader {
				ops = readerDataOps
			}
			if !ops[name] {
				return sop{}, false // Err, Fail, Len, Finish: not stream data
			}
			x.side |= side
			if name == "F64sInto" {
				name = "F64s" // the same bytes, decoded into the caller's backing
			}
			op := sop{kind: name, pos: call.Pos()}
			if (name == "Tag" || name == "Expect") && len(call.Args) == 1 {
				if bl, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && bl.Kind == token.STRING {
					if s, err := strconv.Unquote(bl.Value); err == nil {
						op.lit = s
					}
				}
			}
			if side == sideWriter && name != "Tag" && len(call.Args) == 1 {
				op.hint = fieldHint(info, call.Args[0])
			}
			return op, true
		}
	}
	for _, a := range call.Args {
		if side := x.streamSide(info.TypeOf(a)); side != sideNone {
			x.side |= side
			return sop{kind: opCall, callee: calleeFunc(info, call), pos: call.Pos()}, true
		}
	}
	return sop{}, false
}

// normalizeSeq prunes empty structure so that shape comparison sees only
// op-bearing control flow.
func normalizeSeq(s []sop) []sop {
	var out []sop
	for _, op := range s {
		switch op.kind {
		case opBranch:
			alts := make([][]sop, len(op.alts))
			for i, a := range op.alts {
				alts[i] = normalizeSeq(a)
			}
			out = appendBranch(out, op.pos, alts)
		case opLoop:
			body := normalizeSeq(op.alts[0])
			if len(body) > 0 {
				out = append(out, sop{kind: opLoop, pos: op.pos, alts: [][]sop{body}})
			}
		default:
			out = append(out, op)
		}
	}
	return out
}

// appendBranch normalizes one branch node: common leading ops shared by
// every alternative are hoisted out (the write-flag-then-payload idiom),
// alternatives left empty vanish, and a branch where only some
// alternatives carry ops becomes an optional run.
func appendBranch(out []sop, pos token.Pos, alts [][]sop) []sop {
	for {
		head, ok := commonHead(alts)
		if !ok {
			break
		}
		out = append(out, head)
		for i := range alts {
			alts[i] = alts[i][1:]
		}
	}
	total := len(alts)
	var nonEmpty [][]sop
	for _, a := range alts {
		if len(a) > 0 {
			nonEmpty = append(nonEmpty, a)
		}
	}
	switch {
	case len(nonEmpty) == 0:
		return out
	case len(nonEmpty) == total && total == 1:
		return append(out, nonEmpty[0]...)
	case len(nonEmpty) == total:
		return append(out, sop{kind: opBranch, pos: pos, alts: nonEmpty})
	case len(nonEmpty) == 1:
		return append(out, sop{kind: opOpt, pos: pos, alts: nonEmpty})
	default:
		inner := sop{kind: opBranch, pos: pos, alts: nonEmpty}
		return append(out, sop{kind: opOpt, pos: pos, alts: [][]sop{{inner}}})
	}
}

// commonHead reports the identical first op shared by every alternative,
// if there is one.
func commonHead(alts [][]sop) (sop, bool) {
	if len(alts) < 2 {
		return sop{}, false
	}
	for _, a := range alts {
		if len(a) == 0 {
			return sop{}, false
		}
	}
	h := alts[0][0]
	if !isDataOp(h.kind) && h.kind != opCall {
		return sop{}, false
	}
	for _, a := range alts[1:] {
		o := a[0]
		if o.kind != h.kind || o.lit != h.lit {
			return sop{}, false
		}
		if h.kind == opCall && o.callee != h.callee {
			return sop{}, false
		}
		if o.hint != h.hint {
			h.hint = ""
		}
	}
	return h, true
}

// seqWeight counts the nodes of a tree, used to pick the full-coverage
// load candidate when several loads expect the same tag (a complete
// Restore plus a header-only Peek).
func seqWeight(s []sop) int {
	n := 0
	for _, op := range s {
		n++
		for _, a := range op.alts {
			n += seqWeight(a)
		}
	}
	return n
}

// mm is one mismatch found while aligning a save/load pair.
type mm struct {
	pos token.Pos
	msg string
}

// Pair-verification memo states.
const (
	pairUnknown = iota
	pairInProgress
	pairOK
	pairBad
)

// codecAnalysis is the shared result consumed by the codecsym and
// snapcover checkers.
type codecAnalysis struct {
	prog   *Program
	nodes  map[*types.Func]*funcNode
	order  []*funcNode
	seqs   map[*types.Func][]sop
	side   map[*types.Func]int
	pairs  map[*types.Func]*types.Func // verified save -> load counterpart
	memo   map[[2]*types.Func]int
	memoMM map[[2]*types.Func]*mm
	diags  []Diagnostic
	seen   map[string]bool // diagnostic dedup
}

// analyzeCodec extracts and pairs every save/load function in the
// program. With no codec types configured it returns an empty analysis.
func analyzeCodec(prog *Program, cfg *Config) *codecAnalysis {
	a := &codecAnalysis{
		prog:   prog,
		nodes:  map[*types.Func]*funcNode{},
		seqs:   map[*types.Func][]sop{},
		side:   map[*types.Func]int{},
		pairs:  map[*types.Func]*types.Func{},
		memo:   map[[2]*types.Func]int{},
		memoMM: map[[2]*types.Func]*mm{},
		seen:   map[string]bool{},
	}
	if cfg.CodecWriterType == "" || cfg.CodecReaderType == "" {
		return a
	}
	a.order = declFuncs(prog)
	for _, n := range a.order {
		a.nodes[n.fn] = n
	}
	for _, n := range a.order {
		// The codec's own methods are the primitives, not users of them.
		if pkgPath, typeName, ok := recvNamed(n.fn); ok {
			k := typeKey(pkgPath, typeName)
			if k == cfg.CodecWriterType || k == cfg.CodecReaderType {
				continue
			}
		}
		x := &seqExtractor{pkg: n.pkg, writerKey: cfg.CodecWriterType, readerKey: cfg.CodecReaderType}
		seq := normalizeSeq(x.stmts(n.decl.Body.List))
		if len(seq) == 0 {
			continue
		}
		a.seqs[n.fn] = seq
		a.side[n.fn] = x.side
	}
	a.pairRoots()
	return a
}

func (a *codecAnalysis) addDiag(pos token.Pos, msg string) {
	p := a.prog.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d:%s", p.Filename, p.Line, msg)
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.diags = append(a.diags, Diagnostic{Pos: p, Check: "codecsym", Msg: msg})
}

// pairRoots matches tagged save roots against the loads expecting the
// same tag. When several loads share a tag, the heaviest must mirror the
// save completely; the others may consume a prefix (header peeking).
func (a *codecAnalysis) pairRoots() {
	saveByTag := map[string][]*types.Func{}
	loadByTag := map[string][]*types.Func{}
	var saveTags []string
	for _, n := range a.order {
		// The root op may sit under leading optional structure: a decode
		// error guard before the first Expect folds the whole body into an
		// opt, but the function is still a tagged root.
		first := firstRealOp(a.seqs[n.fn])
		if first == nil || first.lit == "" {
			continue
		}
		switch {
		case first.kind == "Tag" && a.side[n.fn] == sideWriter:
			if saveByTag[first.lit] == nil {
				saveTags = append(saveTags, first.lit)
			}
			saveByTag[first.lit] = append(saveByTag[first.lit], n.fn)
		case first.kind == "Expect" && a.side[n.fn] == sideReader:
			loadByTag[first.lit] = append(loadByTag[first.lit], n.fn)
		}
	}
	for _, tag := range saveTags {
		loads := loadByTag[tag]
		if len(loads) == 0 {
			for _, sf := range saveByTag[tag] {
				a.addDiag(firstRealOp(a.seqs[sf]).pos, fmt.Sprintf(
					"%s writes tag %q but no load function expects it — state saved here can never be restored",
					shortFuncName(sf), tag))
			}
			continue
		}
		sorted := append([]*types.Func(nil), loads...)
		sort.SliceStable(sorted, func(i, j int) bool {
			return seqWeight(a.seqs[sorted[i]]) > seqWeight(a.seqs[sorted[j]])
		})
		for _, sf := range saveByTag[tag] {
			for k, lf := range sorted {
				if k == 0 {
					if m := a.verifyPair(sf, lf); m != nil {
						a.addDiag(m.pos, fmt.Sprintf("codec asymmetry between %s and %s (tag %q): %s",
							shortFuncName(sf), shortFuncName(lf), tag, m.msg))
					}
				} else if m := a.matchSeq(a.seqs[sf], a.seqs[lf], true); m != nil {
					a.addDiag(m.pos, fmt.Sprintf("codec asymmetry between %s and partial load %s (tag %q): %s",
						shortFuncName(sf), shortFuncName(lf), tag, m.msg))
				}
			}
		}
	}
	for _, n := range a.order {
		first := firstRealOp(a.seqs[n.fn])
		if first != nil && first.kind == "Expect" && first.lit != "" &&
			a.side[n.fn] == sideReader && len(saveByTag[first.lit]) == 0 {
			a.addDiag(first.pos, fmt.Sprintf(
				"%s expects tag %q but no save function writes it", shortFuncName(n.fn), first.lit))
		}
	}
}

// firstRealOp returns the first operation of a sequence, descending through
// leading optional wrappers (early-return guards fold the body they
// precede into an opt).
func firstRealOp(seq []sop) *sop {
	for len(seq) > 0 && seq[0].kind == opOpt {
		seq = seq[0].alts[0]
	}
	if len(seq) == 0 {
		return nil
	}
	return &seq[0]
}

// verifyPair checks that save fn sf and load fn lf mirror each other,
// memoized so shared helpers are verified once and recursion through
// mutually-calling pairs terminates.
func (a *codecAnalysis) verifyPair(sf, lf *types.Func) *mm {
	key := [2]*types.Func{sf, lf}
	switch a.memo[key] {
	case pairOK, pairInProgress:
		return nil
	case pairBad:
		return a.memoMM[key]
	}
	ss, sok := a.seqs[sf]
	ls, lok := a.seqs[lf]
	if !sok || !lok {
		// One side is out of program or op-free; nothing to compare.
		a.memo[key] = pairOK
		return nil
	}
	a.memo[key] = pairInProgress
	if m := a.matchSeq(ss, ls, false); m != nil {
		a.memo[key] = pairBad
		a.memoMM[key] = m
		return m
	}
	a.memo[key] = pairOK
	if _, dup := a.pairs[sf]; !dup {
		a.pairs[sf] = lf
	}
	return nil
}

// isNoopCall reports whether op is a call to an in-program function that
// itself performs no stream ops (the stream merely passes through).
func (a *codecAnalysis) isNoopCall(op sop) bool {
	if op.kind != opCall || op.callee == nil {
		return false
	}
	_, inProg := a.nodes[op.callee]
	_, hasOps := a.seqs[op.callee]
	return inProg && !hasOps
}

// kindsCorrespond reports whether a save-side op kind is mirrored by a
// load-side op kind.
func kindsCorrespond(saveKind, loadKind string) bool {
	if saveKind == "Tag" {
		return loadKind == "Expect"
	}
	return saveKind == loadKind
}

func opDesc(op sop) string {
	switch op.kind {
	case opCall:
		if op.callee != nil {
			return "a call to " + op.callee.Name()
		}
		return "a dynamic save/load call"
	case opLoop:
		return "a repeated block"
	case opBranch, opOpt:
		return "a conditional block"
	}
	if op.lit != "" {
		return fmt.Sprintf("%s(%q)", op.kind, op.lit)
	}
	if op.hint != "" {
		return fmt.Sprintf("%s(.%s)", op.kind, op.hint)
	}
	return op.kind
}

// matchSeq aligns a save sequence against a load sequence. shortLoad
// permits the load side to stop early (partial header readers).
func (a *codecAnalysis) matchSeq(save, load []sop, shortLoad bool) *mm {
	i, j := 0, 0
	for {
		for i < len(save) && a.isNoopCall(save[i]) {
			i++
		}
		for j < len(load) && a.isNoopCall(load[j]) {
			j++
		}
		if shortLoad && j >= len(load) {
			return nil
		}
		if i >= len(save) && j >= len(load) {
			return nil
		}
		// Optional runs have two readings — present (body inlined) or
		// absent — and the two sides' optionals need not cover the same
		// extent (a load-side decode-error guard folds the entire tail
		// into one opt, while the save side's presence conditional wraps a
		// single call). Backtrack over both readings, preferring the
		// present one's error when neither aligns.
		if i < len(save) && save[i].kind == opOpt {
			present := a.matchSeq(spliceOpt(save[i:], 0), load[j:], shortLoad)
			if present == nil {
				return nil
			}
			if a.matchSeq(save[i+1:], load[j:], shortLoad) == nil {
				return nil
			}
			return present
		}
		if j < len(load) && load[j].kind == opOpt {
			present := a.matchSeq(save[i:], spliceOpt(load[j:], 0), shortLoad)
			if present == nil {
				return nil
			}
			if a.matchSeq(save[i:], load[j+1:], shortLoad) == nil {
				return nil
			}
			return present
		}
		if i >= len(save) {
			return &mm{pos: load[j].pos, msg: fmt.Sprintf(
				"load reads %s past the end of what save writes", opDesc(load[j]))}
		}
		if j >= len(load) {
			return &mm{pos: save[i].pos, msg: fmt.Sprintf(
				"save writes %s that the load side never reads", opDesc(save[i]))}
		}
		s, l := save[i], load[j]
		switch {
		case isDataOp(s.kind) && isDataOp(l.kind):
			if !kindsCorrespond(s.kind, l.kind) {
				return &mm{pos: s.pos, msg: fmt.Sprintf(
					"type mismatch: save writes %s but load reads %s", opDesc(s), opDesc(l))}
			}
			if s.lit != "" && l.lit != "" && s.lit != l.lit {
				return &mm{pos: s.pos, msg: fmt.Sprintf(
					"tag mismatch: save writes %q but load expects %q", s.lit, l.lit)}
			}
			if s.hint != "" && l.hint != "" && s.hint != l.hint {
				return &mm{pos: s.pos, msg: fmt.Sprintf(
					"transposed fields: save writes .%s at this position but load assigns .%s", s.hint, l.hint)}
			}
		case s.kind == opCall && l.kind == opCall:
			if s.callee != nil && l.callee != nil {
				if m := a.verifyPair(s.callee, l.callee); m != nil {
					return &mm{pos: m.pos, msg: fmt.Sprintf(
						"inside %s / %s: %s", s.callee.Name(), l.callee.Name(), m.msg)}
				}
			}
		case s.kind == opLoop && l.kind == opLoop:
			if m := a.matchSeq(s.alts[0], l.alts[0], false); m != nil {
				return m
			}
		case s.kind == opBranch && l.kind == opBranch:
			if m := a.matchBranch(s, l); m != nil {
				return m
			}
		default:
			return &mm{pos: s.pos, msg: fmt.Sprintf(
				"shape mismatch: save has %s where load has %s", opDesc(s), opDesc(l))}
		}
		i, j = i+1, j+1
	}
}

// matchBranch aligns two branch nodes: alternatives pair up in source
// order, with a permutation fallback for switches whose cases are listed
// in different orders on the two sides.
func (a *codecAnalysis) matchBranch(s, l sop) *mm {
	if len(s.alts) != len(l.alts) {
		return &mm{pos: s.pos, msg: fmt.Sprintf(
			"conditional shape mismatch: save has %d alternatives, load has %d", len(s.alts), len(l.alts))}
	}
	var first *mm
	ok := true
	for k := range s.alts {
		if m := a.matchSeq(s.alts[k], l.alts[k], false); m != nil {
			ok, first = false, m
			break
		}
	}
	if ok {
		return nil
	}
	used := make([]bool, len(l.alts))
	for k := range s.alts {
		found := false
		for j := range l.alts {
			if !used[j] && a.matchSeq(s.alts[k], l.alts[j], false) == nil {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return first
		}
	}
	return nil
}

// spliceOpt replaces the opt node at index k with its body.
func spliceOpt(s []sop, k int) []sop {
	out := make([]sop, 0, len(s)+len(s[k].alts[0])-1)
	out = append(out, s[:k]...)
	out = append(out, s[k].alts[0]...)
	out = append(out, s[k+1:]...)
	return out
}
