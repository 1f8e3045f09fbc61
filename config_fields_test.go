package dosas_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dosas"
	"dosas/internal/core"
	"dosas/internal/pfs"
)

// keptFields are the guarded config fields no program outside their
// package sets, each with the reason it stays settable.
var keptFields = map[string]string{
	"dosas.ClientOptions.SlowFactor":    "README documents the relative slow-request criterion",
	"dosas.ClientOptions.TelemetryTick": "make bench-telemetry sets the client tick",
	"core.RuntimeConfig.ChunkSize":      "tests shrink the kernel chunk to reach interrupts and slots",
	"core.EstimatorConfig.RateFor":      "tests substitute synthetic kernel rates",
	"core.EstimatorConfig.Period":       "tests hold re-evaluation off for an hour, or run it every few milliseconds",
	"core.EstimatorConfig.MemBudget":    "tests shrink the budget to reach memory pressure",
	"core.ClientConfig.ChunkSize":       "tests shrink the client chunk",
	"pfs.QoSConfig.Quantum":             "a gate test sets the WDRR quantum to one write's size",
	"pfs.ExtentConfig.ExtentSize":       "tests shrink extents to reach their boundaries",
}

// TestConfigFieldsHaveCallers is the knob audit: every field of the
// node's, the client's and the pfs layer's (data and metadata servers,
// admission gate, RPC client, extent store) config structs is set by some
// program outside
// the struct's own package — a daemon, a command, an example, the
// benchmark, or the package that wires the node — either as a key in a
// literal of that type or as .Field on the left of an assignment. A field
// nothing sets is a default in disguise and should be a constant; the
// exceptions are keptFields. Test files do not count as callers.
func TestConfigFieldsHaveCallers(t *testing.T) {
	guarded := []reflect.Type{
		reflect.TypeOf(dosas.Options{}),
		reflect.TypeOf(dosas.ClientOptions{}),
		reflect.TypeOf(core.RuntimeConfig{}),
		reflect.TypeOf(core.EstimatorConfig{}),
		reflect.TypeOf(core.ClientConfig{}),
		reflect.TypeOf(pfs.DataConfig{}),
		reflect.TypeOf(pfs.MetaConfig{}),
		reflect.TypeOf(pfs.QoSConfig{}),
		reflect.TypeOf(pfs.ClientConfig{}),
		reflect.TypeOf(pfs.ExtentConfig{}),
	}
	set := settersOutsidePackage(t, guarded)
	fields := make(map[string]bool)
	for _, typ := range guarded {
		for i := 0; i < typ.NumField(); i++ {
			name := typeName(typ) + "." + typ.Field(i).Name
			fields[name] = true
			_, kept := keptFields[name]
			switch {
			case set[name] && kept:
				t.Errorf("%s is set outside its package: drop it from keptFields", name)
			case !set[name] && !kept:
				t.Errorf("%s: nothing outside %s sets it; make its default a constant", name, typ.PkgPath())
			}
		}
	}
	for name := range keptFields {
		if !fields[name] {
			t.Errorf("keptFields names %s, which is not a guarded field", name)
		}
	}
}

// typeName is "pkg.Type" for a named type, pkg being its import path's
// last element.
func typeName(typ reflect.Type) string {
	return path.Base(typ.PkgPath()) + "." + typ.Name()
}

// settersOutsidePackage parses every non-test Go file of the module,
// bench/ included, and returns "pkg.Type.Field" for each guarded field a
// file outside the type's package sets.
func settersOutsidePackage(t *testing.T, guarded []reflect.Type) map[string]bool {
	t.Helper()
	type target struct {
		typ reflect.Type
		dir string // the type's package directory, relative to the module root
	}
	byPath := make(map[string]target) // "import/path.Type"
	for _, typ := range guarded {
		dir := strings.TrimPrefix(strings.TrimPrefix(typ.PkgPath(), "dosas"), "/")
		if dir == "" {
			dir = "."
		}
		byPath[typ.PkgPath()+"."+typ.Name()] = target{typ, dir}
	}
	set := make(map[string]bool)
	mark := func(tg target, field, fileDir string) {
		if fileDir == tg.dir {
			return
		}
		if _, ok := tg.typ.FieldByName(field); ok {
			set[typeName(tg.typ)+"."+field] = true
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := make(map[string]string) // local name → import path
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ipath)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ipath
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				tg, ok := byPath[imports[pkg.Name]+"."+sel.Sel.Name]
				if !ok {
					return true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							mark(tg, key.Name, dir)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						for _, tg := range byPath {
							mark(tg, sel.Sel.Name, dir)
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}
