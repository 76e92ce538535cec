package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// Goroutineleak flags `go` statements that spawn a function which can
// block forever with no cancellation path. A goroutine parked on a
// channel nobody will ever service is a leak: it pins its stack, its
// captures, and — in this codebase — often a connection or a shard.
//
// The check is syntactic and reads one function: the spawned literal, or
// a function declared in the same package. Its body (nested literals
// excluded; they run on their own schedule) is scanned for
//
//   - a channel send or receive outside select (a receive unblocks on
//     close, but only if some path closes the channel — a waiver
//     documents that),
//   - a select with neither a default case nor a cancellation arm
//     (<-ctx.Done(), <-time.After(...), a .C timer channel),
//   - sync.WaitGroup.Wait or sync.Cond.Wait.
//
// Callees are not followed: a Wait inside one is overwhelmingly a
// structured fork-join whose completion the callee guarantees. Ranging
// over a channel is treated as cancellable (close terminates the loop),
// which keeps the engine pool's worker pattern clean by construction.
var Goroutineleak = &Analyzer{
	Name: "goroutineleak",
	Doc: "flag go statements whose function can block forever on a " +
		"channel, WaitGroup, or select with no cancellation path",
	Run: runGoroutineleak,
}

func runGoroutineleak(pass *Pass) {
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	pass.Inspect(func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		var body *ast.BlockStmt
		if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
			body = lit.Body
		} else if id := calleeIdent(g.Call); id != nil {
			if fd := decls[pass.Info.Uses[id]]; fd != nil {
				body = fd.Body
			}
		}
		if body == nil {
			return true
		}
		if desc, at := firstBlock(pass, body); at.IsValid() {
			pos := pass.Fset.Position(at)
			pass.Reportf(g.Pos(),
				"goroutine may block forever: %s at %s:%d has no cancellation path; select on a done/context channel, add a default, or close the channel",
				desc, filepath.Base(pos.Filename), pos.Line)
		}
		return true
	})
}

// firstBlock returns the first uncancellable blocking operation in body,
// or an invalid position when there is none.
func firstBlock(pass *Pass, body *ast.BlockStmt) (desc string, at token.Pos) {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		if at.IsValid() {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if !selectCancellable(pass, n) {
				desc, at = "select with no default or cancellation arm", n.Pos()
				return false
			}
			// The comm statements are judged with their select; only the
			// clause bodies can block on their own.
			for _, cl := range n.Body.List {
				for _, s := range cl.(*ast.CommClause).Body {
					ast.Inspect(s, visit)
				}
			}
			return false
		case *ast.SendStmt:
			desc, at = "channel send", n.Pos()
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				desc, at = "channel receive", n.Pos()
			}
		case *ast.CallExpr:
			switch pass.CalleeName(n) {
			case "(*sync.WaitGroup).Wait":
				desc, at = "sync.WaitGroup.Wait", n.Pos()
			case "(*sync.Cond).Wait":
				desc, at = "sync.Cond.Wait", n.Pos()
			}
		}
		return !at.IsValid()
	}
	ast.Inspect(body, visit)
	return desc, at
}

// selectCancellable reports whether a select statement has an escape arm:
// a default case, a receive from ctx.Done()/time.After/time.Tick, or a
// receive from a timer/ticker .C channel.
func selectCancellable(pass *Pass, sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil || recvChannelIsCancel(pass, cc.Comm) {
			return true // default case or cancellation receive
		}
	}
	return false
}

// recvChannelIsCancel inspects one comm statement for a cancellation
// receive.
func recvChannelIsCancel(pass *Pass, comm ast.Stmt) bool {
	var expr ast.Expr
	switch c := comm.(type) {
	case *ast.ExprStmt:
		expr = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			expr = c.Rhs[0]
		}
	}
	un, ok := ast.Unparen(expr).(*ast.UnaryExpr)
	if !ok || un.Op != token.ARROW {
		return false
	}
	switch ch := ast.Unparen(un.X).(type) {
	case *ast.CallExpr:
		switch pass.CalleeName(ch) {
		case "time.After", "time.Tick":
			return true
		}
		if id := calleeIdent(ch); id != nil && id.Name == "Done" {
			return true // context.Context.Done or a done()-style accessor
		}
	case *ast.SelectorExpr:
		switch ch.Sel.Name {
		case "C":
			return true // time.Timer.C / time.Ticker.C
		case "done", "quit", "stop":
			return true // conventional cancellation channel fields
		}
	case *ast.Ident:
		switch ch.Name {
		case "done", "quit", "stop", "cancel":
			return true // conventional cancellation channel names
		}
	}
	return false
}
