// Package analysis is a zero-dependency static-analysis framework for this
// repository, built directly on go/parser and go/types.
//
// SBGT's reproducibility claims rest on invariants the compiler cannot
// check: simulations must be bit-stable for a fixed seed regardless of
// goroutine scheduling, all parallelism must flow through the approved
// substrate (internal/engine, internal/cluster), floating-point code must
// not rely on exact equality or naive probability products, and errors
// must not be silently dropped. Each invariant is encoded as an Analyzer;
// cmd/sbgt-lint runs the suite over every package in the module and exits
// non-zero on any diagnostic, so the invariants gate CI.
//
// Intentional exceptions are annotated in source with
//
//	//lint:allow <analyzer> <reason>
//
// which suppresses diagnostics from <analyzer> on the comment's line and
// the line below it. The reason is mandatory; a bare allow is itself a
// diagnostic. See allow.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a human-readable message.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check. Run inspects a single
// type-checked package through the Pass and reports findings.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer execution.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// PkgPath is the package's import path (e.g. "repro/internal/prob").
	PkgPath string
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info

	sink *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expr, or nil when type information is
// unavailable (which analyzers treat as "don't flag").
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	return p.Info.TypeOf(expr)
}

// CalleeName resolves the fully qualified name of a call's target, such
// as "math.Log", "time.Now", "(*strings.Builder).WriteString", or
// "(net.Listener).Close". It returns "" for calls it cannot resolve
// (function values, builtins, type conversions).
func (p *Pass) CalleeName(call *ast.CallExpr) string {
	id := calleeIdent(call)
	if id == nil {
		return ""
	}
	if f, ok := p.Info.Uses[id].(*types.Func); ok {
		return f.FullName()
	}
	return ""
}

// calleeIdent extracts the identifier a call resolves through: the name
// of a plain call or the selector of a method or qualified call.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn
	case *ast.SelectorExpr:
		return fn.Sel
	}
	return nil
}

// Inspect walks every file in the package in depth-first order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// pathHasSegment reports whether the import path contains seg as a whole
// "/"-separated segment (so "cmd" matches "repro/cmd/sbgt" but not
// "repro/cmdlets").
func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// pathHasSuffix reports whether path ends with the "/"-separated suffix,
// e.g. pathHasSuffix("repro/internal/prob", "internal/prob").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// Run executes every analyzer over every package, applies the per-file
// allowlists, and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := run(pkgs, analyzers)
	return diags
}

// RunAudit is Run plus the waiver audit: the second slice holds one
// diagnostic (analyzer "allow") per //lint:allow comment that suppressed
// nothing in this run. Auditing is only meaningful when every analyzer
// runs — a waiver for an analyzer excluded from the run is reported as
// stale, which is exactly the CI-facing behavior (-audit forces the full
// suite in cmd/sbgt-lint).
func RunAudit(pkgs []*Package, analyzers []*Analyzer) (diags, stale []Diagnostic) {
	return run(pkgs, analyzers)
}

func run(pkgs []*Package, analyzers []*Analyzer) (out, stale []Diagnostic) {
	for _, pkg := range pkgs {
		allows, allowDiags := collectAllows(pkg)
		out = append(out, allowDiags...)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				PkgPath:  pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				sink:     &raw,
			}
			a.Run(pass)
		}
		for _, d := range raw {
			if !allows.allowed(d) {
				out = append(out, d)
			}
		}
		stale = append(stale, allows.stale()...)
	}
	sortDiagnostics(out)
	sortDiagnostics(stale)
	return out, stale
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
