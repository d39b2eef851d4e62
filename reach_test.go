package golake

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Reachability: a function under internal/ stays only if something
// other than a test or an example refers to it. The lake paths — the
// explorer modes, maintenance stages, HTTP routes, this facade,
// lakectl and the core.Registry closures — and the benchmark module
// are the callers; _test.go files and examples/ are not. A reference
// is resolved with go/types, so a function counts as reached only when
// that function object is used outside its own body, or, for a method,
// when a method of the same name on an interface its receiver
// implements is used. Every exported method of core.Lake is a root:
// golake.Lake aliases it, so it is public API.

// reachAllow names what may stand without a caller, each with its
// reason. A key ending in "/" is a package directory, relative to the
// repository root; "pkg.Func" is one function and "pkg.Type.Method"
// one method, pkg being the package name; a bare name is any method of
// that name, for the interfaces the standard library calls through.
var reachAllow = map[string]string{
	"internal/persist/faulty/": "test harness: fault-injecting backends for persistence tests",
	"internal/workload/":       "test harness: corpus generators for tests and the benchmark",

	"Len":  "sort.Interface and heap.Interface",
	"Less": "sort.Interface and heap.Interface",
	"Swap": "sort.Interface and heap.Interface",
	"Push": "heap.Interface",
	"Pop":  "heap.Interface",

	"Enabled":   "slog.Handler",
	"Handle":    "slog.Handler",
	"WithAttrs": "slog.Handler",
	"WithGroup": "slog.Handler",

	"Unwrap": "errors.Is and errors.As unwrap through it",
	"String": "fmt.Stringer: fmt's %v and %s call it",

	"ndjson.AppendRow":    "the reference the query and remote tests compare Batch.AppendRowJSON and the stream decoder against",
	"filestore.Store.Get": "the raw-bytes tests read each stored original back through it, live and after reopen",

	"discovery.D3L.Name":             "discovery.Discoverer, which the discovery referees index and rank through",
	"discovery.D3L.Index":            "discovery.Discoverer, which the discovery referees index and rank through",
	"discovery.JOSIE.Name":           "discovery.Discoverer, which the discovery referees index and rank through",
	"discovery.Juneau.Name":          "discovery.Discoverer, which the discovery referees index and rank through",
	"discovery.Juneau.RelatedTables": "discovery.Discoverer, which the discovery referees index and rank through",
	"discovery.D3L.JoinableColumns":  "discovery.JoinSearcher: the golden file pins its answers",
}

// uncalled type-checks every non-test package under root, examples/,
// testdata and hidden directories excepted, and returns "file:line
// name", in file order, for each function or method declared under
// internal/ that nothing outside its own body uses and neither the
// core.Lake root nor reachAllow excuses.
func uncalled(root string) ([]string, error) {
	fset := token.NewFileSet()
	tree, err := parseTree(fset, root)
	if err != nil {
		return nil, err
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	if err := tree.check(info); err != nil {
		return nil, err
	}

	uses := map[*types.Func][]token.Pos{}
	var ifaceUses []*types.Func // interface methods called or referenced
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		uses[fn] = append(uses[fn], id.Pos())
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceUses = append(ifaceUses, fn)
		}
	}

	var out []string
	for _, f := range tree.files {
		if !strings.HasPrefix(f.rel, "internal/") {
			continue
		}
		for _, x := range f.ast.Decls {
			fd, ok := x.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" {
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			recv := ""
			if named := recvNamed(fn); named != nil {
				recv = named.Obj().Name()
			}
			if allowed(f.rel, fn.Pkg().Name(), recv, fn.Name()) || isRoot(f.rel, recv, fn) {
				continue
			}
			reach := uses[fn]
			for _, im := range ifaceUses {
				if im.Name() == fn.Name() && implements(fn, im) {
					reach = append(reach, uses[im]...)
				}
			}
			reached := false
			for _, p := range reach {
				if p < fd.Pos() || p >= fd.End() {
					reached = true
					break
				}
			}
			if !reached {
				name := fn.Name()
				if recv != "" {
					name = recv + "." + name
				}
				out = append(out, fmt.Sprintf("%s:%d %s", f.rel, fset.Position(fd.Pos()).Line, name))
			}
		}
	}
	return out, nil
}

// isRoot reports whether fn is an exported method of core.Lake.
func isRoot(file, recv string, fn *types.Func) bool {
	return strings.HasPrefix(file, "internal/core/") && recv == "Lake" && fn.Exported()
}

// recvNamed is the named type a method is declared on, nil for a
// function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// implements reports whether the receiver of method fn, or a pointer
// to it, implements the interface that declares method im. A generic
// receiver is taken to implement it: go/types leaves Implements
// unspecified for uninstantiated types.
func implements(fn, im *types.Func) bool {
	named := recvNamed(fn)
	if named == nil {
		return false
	}
	iface, ok := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	if named.TypeParams().Len() > 0 {
		return true
	}
	return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
}

func allowed(file, pkg, recv, name string) bool {
	for key := range reachAllow {
		if strings.HasSuffix(key, "/") && strings.HasPrefix(file, key) {
			return true
		}
	}
	if recv == "" {
		_, ok := reachAllow[pkg+"."+name]
		return ok
	}
	_, anyRecv := reachAllow[name]
	_, thisRecv := reachAllow[pkg+"."+recv+"."+name]
	return anyRecv || thisRecv
}

// srcTree is every non-test package of the modules under one root,
// keyed by import path. A directory holding a go.mod starts a module;
// every other directory's import path is its parent's plus its name,
// so a module that replaces another with a directory in the same tree
// (the benchmark's golake => ../) resolves to the same packages.
type srcTree struct {
	fset  *token.FileSet
	pkgs  map[string]*srcPkg
	files []srcFile // in walk order
}

type srcFile struct {
	rel string // slash-separated, relative to the root
	ast *ast.File
}

type srcPkg struct {
	files []*ast.File
	types *types.Package
	err   error
}

func parseTree(fset *token.FileSet, root string) (*srcTree, error) {
	t := &srcTree{fset: fset, pkgs: map[string]*srcPkg{}}
	dirPath := map[string]string{} // directory -> import path
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "examples") {
				return filepath.SkipDir
			}
			mod, err := modulePath(filepath.Join(path, "go.mod"))
			if err != nil {
				return err
			}
			if mod == "" {
				if parent, ok := dirPath[filepath.Dir(path)]; ok {
					mod = parent + "/" + d.Name()
				}
			}
			dirPath[path] = mod
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		imp := dirPath[filepath.Dir(path)]
		if imp == "" {
			return fmt.Errorf("%s: no go.mod above it", rel)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if t.pkgs[imp] == nil {
			t.pkgs[imp] = &srcPkg{}
		}
		t.pkgs[imp].files = append(t.pkgs[imp].files, f)
		t.files = append(t.files, srcFile{rel: rel, ast: f})
		return nil
	})
	return t, err
}

// modulePath reads the module line of a go.mod, "" when there is none.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if os.IsNotExist(err) {
		return "", nil
	} else if err != nil {
		return "", err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// check type-checks every package from source, recording into info.
// Imports outside the tree (the standard library) come from the export
// data `go list -export -deps` names, so nothing is downloaded.
func (t *srcTree) check(info *types.Info) error {
	external := map[string]bool{}
	for _, p := range t.pkgs {
		for _, f := range p.files {
			for _, s := range f.Imports {
				if path := strings.Trim(s.Path.Value, `"`); t.pkgs[path] == nil {
					external[path] = true
				}
			}
		}
	}
	exports := map[string]string{}
	if len(external) > 0 {
		args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
		for path := range external {
			args = append(args, path)
		}
		out, err := exec.Command("go", args...).Output()
		if err != nil {
			return fmt.Errorf("go list -export: %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
				exports[path] = file
			}
		}
	}
	std := importer.ForCompiler(t.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	im := &treeImporter{tree: t, std: std, info: info}
	paths := make([]string, 0, len(t.pkgs))
	for path := range t.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := im.Import(path); err != nil {
			return err
		}
	}
	return nil
}

// treeImporter checks a tree package from source the first time it is
// imported and hands every other path to the export-data importer.
type treeImporter struct {
	tree *srcTree
	std  types.Importer
	info *types.Info
}

func (im *treeImporter) Import(path string) (*types.Package, error) {
	p := im.tree.pkgs[path]
	if p == nil {
		return im.std.Import(path)
	}
	if p.types == nil && p.err == nil {
		conf := types.Config{Importer: im}
		p.types, p.err = conf.Check(path, im.tree.fset, p.files, im.info)
	}
	return p.types, p.err
}

// TestEveryFunctionHasACaller fails on each function under internal/
// that no lake path, and not the benchmark either, refers to: delete
// it, or give it a caller, or add it to reachAllow with its reason.
func TestEveryFunctionHasACaller(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := uncalled(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Errorf("no caller outside tests and examples: %s", b)
	}
}

// TestUncalledFixture runs the checker over a small tree and expects
// exactly the functions without a lake-path caller: the ones nothing
// calls, or only tests or examples call, and a method that shares its
// name with a called one on another type.
func TestUncalledFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module x\n\ngo 1.22\n",
		"internal/p/p.go": `package p

type byName []string

func (s byName) Less(i, j int) bool { return s[i] < s[j] }

func Orphan() int { return Orphan() }

func TestOnly() {}

func ExampleOnly() {}

func Used() {}

type A struct{}

func (A) Has() bool { return true }

type B struct{}

func (B) Has() bool { return false }

type Shape interface{ Area() int }

type Square struct{}

func (Square) Area() int { return 1 }

func Total(ss []Shape) (n int) {
	for _, s := range ss {
		n += s.Area()
	}
	return n
}

func Identity[T any](v T) T { return v }
`,
		"internal/p/p_test.go": `package p

func helper() { TestOnly(); B{}.Has() }
`,
		"internal/core/core.go": `package core

type Lake struct{}

func (*Lake) Exported() {}

func (*Lake) unexported() {}
`,
		"examples/demo/main.go": `package main

import "x/internal/p"

func main() { p.ExampleOnly() }
`,
		"cmd/tool/main.go": `package main

import (
	"fmt"

	"x/internal/p"
)

func main() {
	p.Used()
	fmt.Println(p.A{}.Has(), p.Total([]p.Shape{p.Square{}}), p.Identity[int](1))
}
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := uncalled(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/core/core.go:7 Lake.unexported",
		"internal/p/p.go:7 Orphan",
		"internal/p/p.go:9 TestOnly",
		"internal/p/p.go:11 ExampleOnly",
		"internal/p/p.go:21 B.Has",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("uncalled flagged\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
