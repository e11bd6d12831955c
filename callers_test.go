package fpgapart

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnly lists the internal/ functions and methods that production
// code does not call and that stay anyway, each with its reason. A key
// is a package path relative to the module root, alone (the whole
// package) or followed by ".Func" or ".Type.Method".
var testOnly = map[string]string{
	"internal/oracle": "the exhaustive reference the engine's tests compare against; no command links it",

	"internal/faultinject.PanicAtAttempt":  faultSeam,
	"internal/faultinject.CancelAtAttempt": faultSeam,
	"internal/faultinject.DelayAtAttempt":  faultSeam,
	"internal/faultinject.DelayAtPass":     faultSeam,
	"internal/faultinject.AllocCapAtCarve": faultSeam,
	"internal/faultinject.NewPlan":         faultSeam,
	"internal/faultinject.Plan.Firings":    faultSeam,
	"internal/faultinject.Plan.FiredSeeds": faultSeam,
	"internal/faultinject.Plan.Reset":      faultSeam,

	"internal/telemetry.NewFakeClock":      "the declared seam that lets tests drive span and metric time",
	"internal/telemetry.FakeClock.Advance": "the declared seam that lets tests drive span and metric time",

	"internal/trace.Recorder.Events": "reads back what a Recorder sink captured, for tests that assert on event streams",
	"internal/trace.Recorder.Filter": "reads back what a Recorder sink captured, for tests that assert on event streams",

	"internal/replication.State.InstanceSpecs": "the reference materialization the replication, fm and cluster tests compare carve-in-place against; in-package tests cannot share a test helper without an import cycle",
}

// faultSeam is why the fault plan constructors and queries stay.
const faultSeam = "the declared fault-injection seam: production consults a plan, tests build it and read back what fired"

// TestEveryInternalFuncHasAProductionCaller fails on a function or
// method in a non-test internal/ file that no non-test code of the
// module references, unless testOnly lists it. It is the identifier
// level twin of CI's rule that every internal package is linked into a
// command.
func TestEveryInternalFuncHasAProductionCaller(t *testing.T) {
	unused, stale, err := scanCallers(".", testOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		t.Errorf("%s has no caller outside _test.go files: delete it, move it into the tests that use it, or list it in testOnly with the reason", name)
	}
	for _, name := range stale {
		t.Errorf("testOnly lists %s, which no longer exists or now has a production caller", name)
	}
}

// TestScanCallersFixture runs the scan on a small module whose flagged
// and unflagged functions are known.
func TestScanCallersFixture(t *testing.T) {
	exempt := map[string]string{
		"internal/lib.Reference":    "kept for the fixture's tests",
		"internal/lib.Gone":         "no longer exists",
		"internal/lib.Used":         "production calls it",
		"internal/lib.Point.String": "production prints a Point",
	}
	unused, stale, err := scanCallers(filepath.Join("testdata", "callers"), exempt)
	if err != nil {
		t.Fatal(err)
	}
	wantUnused := []string{
		"internal/lib.Point.Scale",
		"internal/lib.TestOnly",
		"internal/lib.box.peek",
	}
	if !slices.Equal(unused, wantUnused) {
		t.Errorf("unused = %q, want %q", unused, wantUnused)
	}
	wantStale := []string{
		"internal/lib.Gone",
		"internal/lib.Point.String",
		"internal/lib.Used",
	}
	if !slices.Equal(stale, wantStale) {
		t.Errorf("stale exemptions = %q, want %q", stale, wantStale)
	}
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
}

// scanCallers type-checks the non-test files of the module rooted at
// dir, with the standard library type-checked from source, and returns
// the internal/ functions and methods that no non-test file references,
// leaving out those exempt lists. A method also counts as referenced
// when its receiver type satisfies an interface that has the method:
// an interface declared in the module or in a standard package it
// loads, error, or the Unwrap interfaces the errors package checks for.
// stale lists the exemptions that name nothing flagged. Both lists are
// sorted and name each function by its package path relative to the
// module, then its receiver type and name, separated by dots.
func scanCallers(dir string, exempt map[string]string) (unused, stale []string, err error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v: %s", err, stderr.Bytes())
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{
		mod: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	used := map[types.Object]bool{}
	names := map[*types.Func]string{} // every internal/ function and method
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, 0)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, err
		}
		imp.mod[lp.ImportPath] = pkg
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		rel := strings.TrimPrefix(lp.ImportPath, lp.Module.Path+"/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				name := rel + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					name = rel + "." + receiverName(recv.Type()) + "." + fn.Name()
				}
				names[fn] = name
			}
		}
	}

	ifaces, err := interfaces(fset, imp)
	if err != nil {
		return nil, nil, err
	}
	flagged := map[string]bool{}
	for fn, name := range names {
		if !used[fn] && !satisfiesInterface(fn, ifaces) {
			flagged[name] = true
		}
	}
	for name := range flagged {
		if !exempted(name, exempt) {
			unused = append(unused, name)
		}
	}
	for key := range exempt {
		live := false
		for name := range flagged {
			if name == key || strings.HasPrefix(name, key+".") {
				live = true
				break
			}
		}
		if !live {
			stale = append(stale, key)
		}
	}
	slices.Sort(unused)
	slices.Sort(stale)
	return unused, stale, nil
}

// exempted reports whether exempt lists name or its package.
func exempted(name string, exempt map[string]string) bool {
	if _, ok := exempt[name]; ok {
		return true
	}
	pkg, _, _ := strings.Cut(name, ".")
	_, ok := exempt[pkg]
	return ok
}

// receiverName is the name of a method's receiver type, without a
// pointer or type parameters.
func receiverName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// satisfiesInterface reports whether fn is a method whose receiver type
// satisfies one of ifaces that has a method of fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	for _, iface := range ifaces {
		for i := range iface.NumMethods() {
			if iface.Method(i).Name() == fn.Name() && types.Implements(t, iface) {
				return true
			}
		}
	}
	return false
}

// implicitCalls declares the interfaces the standard library checks
// for at run time without naming them in a package scope.
const implicitCalls = `package implicit

type (
	wrapper     interface{ Unwrap() error }
	joinWrapper interface{ Unwrap() []error }
	failure     interface{ error }
)
`

// interfaces returns every interface type declared at package level in
// the packages imp has loaded, module and standard alike, plus those of
// implicitCalls.
func interfaces(fset *token.FileSet, imp *moduleImporter) ([]*types.Interface, error) {
	f, err := parser.ParseFile(fset, "implicit.go", implicitCalls, 0)
	if err != nil {
		return nil, err
	}
	implicit, err := new(types.Config).Check("implicit", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				out = append(out, tn.Type().Underlying().(*types.Interface))
			}
		}
		for _, dep := range p.Imports() {
			walk(dep)
		}
	}
	walk(implicit)
	for _, p := range imp.mod {
		walk(p)
	}
	return out, nil
}

// moduleImporter resolves the module's own packages to the ones the
// scan has type-checked and every other path from source.
type moduleImporter struct {
	mod map[string]*types.Package
	std types.ImporterFrom
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.mod[path]; ok {
		return p, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}
