package dosas_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docNameAllowlist holds the backticked names the docs use that no Go
// source declares: assembler mnemonics, operating-system constants and
// signals as the kernel's own documentation spells them, and MPI's C API.
var docNameAllowlist = map[string]bool{
	"MOVOU": true, "PADDQ": true, "PREFETCHNTA": true, "PREFETCHT0": true,
	"PSADBW": true, "PSHUFD": true, "VPSADBW": true,
	"EFAULT": true, "EINTR": true, "EOF": true, "MAP_SHARED": true, "MSG_MORE": true,
	"PROT_NONE": true, "PROT_READ": true, "SIGBUS": true,
	"MPI_File_read_ex": true,
}

// TestDocNamesResolve: every Go name DESIGN.md and README.md quote in
// backticks — pkg.Exported, Type.Member, or a bare exported identifier —
// resolves to a declaration in the tree's Go files (a test, benchmark or
// fuzz target counts), in an assembler #define, or in a standard-library
// package the tree imports. A renamed or deleted identifier fails here
// instead of leaving the docs naming code that is gone. Lower-case dotted
// names (metrics such as data.inflight, variables such as rt.mu) are not
// checked.
func TestDocNamesResolve(t *testing.T) {
	decls := scanDecls(t)
	span := regexp.MustCompile("`([^`\n]+)`")
	name := regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	fence := regexp.MustCompile("(?s)```.*?```")
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(fence.ReplaceAllString(string(text), ""), -1) {
			n := strings.TrimSuffix(m[1], "()")
			if !name.MatchString(n) || isFileName(n) || docNameAllowlist[n] {
				continue
			}
			if !decls.resolve(strings.Split(n, ".")) {
				t.Errorf("%s: `%s` names no declaration in the tree", doc, m[1])
			}
		}
	}
}

// isFileName reports whether a dotted name is a file, not a selector.
func isFileName(n string) bool {
	switch filepath.Ext(n) {
	case ".md", ".json", ".go", ".s", ".txt", ".sh", ".mod", ".wal", ".bin":
		return true
	}
	return false
}

// typeKey names a type by its package's name and its own.
type typeKey struct{ pkg, name string }

// member is one field or method of a type. typ is a field's named type,
// when it has one, so a selector chain can continue through it; a method
// has none.
type member struct{ typ *typeKey }

// declIndex is the declarations a doc name may resolve to.
type declIndex struct {
	names   map[string]bool               // every declared identifier, at any level
	scope   map[string]map[string]bool    // package name → its top-level names
	types   map[typeKey]bool              // declared types
	members map[typeKey]map[string]member // a type's fields and methods
	embeds  map[typeKey][]typeKey         // a type's embedded types, and an alias's target
	imports map[string]string             // standard-library package name → import path
	std     map[string]bool               // standard-library packages already indexed
	fset    *token.FileSet
}

// scanDecls indexes every Go file and assembler #define in the tree.
func scanDecls(t *testing.T) *declIndex {
	t.Helper()
	d := &declIndex{
		names: map[string]bool{}, scope: map[string]map[string]bool{}, types: map[typeKey]bool{},
		members: map[typeKey]map[string]member{}, embeds: map[typeKey][]typeKey{},
		imports: map[string]string{}, std: map[string]bool{}, fset: token.NewFileSet(),
	}
	define := regexp.MustCompile(`(?m)^#define\s+(\w+)`)
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".s":
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range define.FindAllStringSubmatch(string(src), -1) {
				d.names[m[1]] = true
			}
		case ".go":
			f, err := parser.ParseFile(d.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			d.addFile(f, strings.HasSuffix(path, "_test.go"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// addFile indexes one file's declarations. Of a test file only its test,
// benchmark, fuzz and example functions count, and its imports not at all.
func (d *declIndex) addFile(f *ast.File, test bool) {
	pkg := f.Name.Name
	if test {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
					if strings.HasPrefix(fn.Name.Name, prefix) {
						d.names[fn.Name.Name] = true
					}
				}
			}
		}
		return
	}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if !strings.Contains(strings.SplitN(path, "/", 2)[0], ".") && !strings.HasPrefix(path, "dosas") {
			d.imports[filepath.Base(path)] = path
		}
	}
	d.addDecls(pkg, f)
}

// addDecls indexes the top-level declarations of f, in package pkg.
func (d *declIndex) addDecls(pkg string, f *ast.File) {
	if d.scope[pkg] == nil {
		d.scope[pkg] = map[string]bool{}
	}
	declare := func(n string) {
		d.names[n] = true
		d.scope[pkg][n] = true
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				declare(decl.Name.Name)
				continue
			}
			if recv := typeOf(pkg, decl.Recv.List[0].Type); recv != nil {
				d.addMember(*recv, decl.Name.Name, member{})
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						declare(n.Name)
					}
				case *ast.TypeSpec:
					declare(spec.Name.Name)
					d.addType(typeKey{pkg, spec.Name.Name}, spec)
				}
			}
		}
	}
}

// addType indexes a type's fields, interface methods, embedded types and
// alias target.
func (d *declIndex) addType(k typeKey, spec *ast.TypeSpec) {
	d.types[k] = true
	if spec.Assign.IsValid() {
		if target := typeOf(k.pkg, spec.Type); target != nil {
			d.embeds[k] = append(d.embeds[k], *target)
		}
		return
	}
	var fields []*ast.Field
	switch typ := spec.Type.(type) {
	case *ast.StructType:
		fields = typ.Fields.List
	case *ast.InterfaceType:
		fields = typ.Methods.List
	}
	for _, fl := range fields {
		ft := typeOf(k.pkg, fl.Type)
		if len(fl.Names) == 0 {
			if ft != nil {
				d.embeds[k] = append(d.embeds[k], *ft)
				d.addMember(k, ft.name, member{typ: ft})
			}
			continue
		}
		for _, n := range fl.Names {
			d.addMember(k, n.Name, member{typ: ft})
		}
	}
}

func (d *declIndex) addMember(k typeKey, name string, m member) {
	d.names[name] = true
	if d.members[k] == nil {
		d.members[k] = map[string]member{}
	}
	d.members[k][name] = m
}

// typeOf names the type an expression denotes, through pointers and type
// arguments; nil for a type literal.
func typeOf(pkg string, e ast.Expr) *typeKey {
	switch e := e.(type) {
	case *ast.Ident:
		return &typeKey{pkg, e.Name}
	case *ast.SelectorExpr:
		if p, ok := e.X.(*ast.Ident); ok {
			return &typeKey{p.Name, e.Sel.Name}
		}
	case *ast.StarExpr:
		return typeOf(pkg, e.X)
	case *ast.IndexExpr:
		return typeOf(pkg, e.X)
	case *ast.IndexListExpr:
		return typeOf(pkg, e.X)
	}
	return nil
}

// resolve reports whether a doc name resolves. A chain that reaches a
// function, a variable or a field of unnamed type resolves as far as it
// can be followed.
func (d *declIndex) resolve(parts []string) bool {
	first := parts[0]
	if d.scope[first] == nil && d.imports[first] != "" {
		d.indexStd(first)
	}
	if pkg := d.scope[first]; pkg != nil && len(parts) > 1 {
		if !ast.IsExported(parts[1]) {
			return true // a metric such as wire.copied_bytes: out of scope
		}
		if !pkg[parts[1]] {
			return false
		}
		k := typeKey{first, parts[1]}
		return !d.types[k] || d.chain(k, parts[2:])
	}
	if !ast.IsExported(first) {
		return true // a metric, a variable or a kernel name: out of scope
	}
	if len(parts) == 1 {
		return d.names[first]
	}
	for k := range d.types {
		if k.name == first && d.chain(k, parts[1:]) {
			return true
		}
	}
	return false
}

// chain reports whether the selectors rest follow from type k.
func (d *declIndex) chain(k typeKey, rest []string) bool {
	if len(rest) == 0 {
		return true
	}
	m, ok := d.lookup(k, rest[0], map[typeKey]bool{})
	if !ok {
		return false
	}
	if m.typ == nil || !d.types[*m.typ] {
		return true
	}
	return d.chain(*m.typ, rest[1:])
}

// lookup finds a member of k, or one it promotes from an embedded type.
func (d *declIndex) lookup(k typeKey, name string, seen map[typeKey]bool) (member, bool) {
	if seen[k] {
		return member{}, false
	}
	seen[k] = true
	if m, ok := d.members[k][name]; ok {
		return m, true
	}
	for _, e := range d.embeds[k] {
		if m, ok := d.lookup(e, name, seen); ok {
			return m, true
		}
	}
	return member{}, false
}

// indexStd indexes the standard-library package the tree imports as name.
func (d *declIndex) indexStd(name string) {
	path := d.imports[name]
	if d.std[path] {
		return
	}
	d.std[path] = true
	// A bare doc name must resolve in the tree, not in the library.
	names := d.names
	d.names = map[string]bool{}
	defer func() { d.names = names }()
	p, err := build.Default.Import(path, "", build.FindOnly)
	if err != nil {
		return
	}
	files, _ := filepath.Glob(filepath.Join(p.Dir, "*.go"))
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		if f, err := parser.ParseFile(d.fset, file, nil, parser.SkipObjectResolution); err == nil {
			d.addDecls(name, f)
		}
	}
}
