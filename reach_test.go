package golake

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Reachability: a function under internal/ stays only if something
// other than a test or an example refers to it. The lake paths — the
// explorer modes, maintenance stages, HTTP routes, this facade,
// lakectl and the core.Registry closures — and the benchmark module
// are the callers; _test.go files and examples/ are not. A reference
// is matched by name, so a function whose name is used anywhere
// outside its own declaration counts as reached.

// reachAllow names what may stand without a caller, each with its
// reason. A key ending in "/" is a package directory, relative to the
// repository root; a "Type.Method" key is one method; a bare name is
// any method of that name.
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

	"Lake.AddToken":   "facade: golake.Lake = core.Lake is public API",
	"Lake.TaskSearch": "facade: golake.Lake = core.Lake is public API",
	"Lake.QuerySQL":   "facade: golake.Lake = core.Lake is public API",
}

// uncalled parses every non-test .go file under root, examples/,
// testdata and hidden directories excepted, and returns "file:line
// name", in file order, for each function or method declared under
// internal/ whose name appears nowhere outside its own declaration and
// reachAllow does not excuse.
func uncalled(root string) ([]string, error) {
	type decl struct {
		file       string
		pos, end   token.Pos
		name, recv string
	}
	fset := token.NewFileSet()
	var decls []decl
	refs := map[string][]token.Pos{} // name -> every use that is not a declaration's name
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
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declNames := map[*ast.Ident]bool{}
		for _, x := range f.Decls {
			fd, ok := x.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !strings.HasPrefix(rel, "internal/") || fd.Name.Name == "init" {
				continue
			}
			dc := decl{file: rel, pos: fd.Pos(), end: fd.End(), name: fd.Name.Name}
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				dc.recv = recvType(fd.Recv.List[0].Type)
			}
			decls = append(decls, dc)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				refs[id.Name] = append(refs[id.Name], id.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range decls {
		if allowed(d.file, d.recv, d.name) {
			continue
		}
		reached := false
		for _, p := range refs[d.name] {
			if p < d.pos || p >= d.end {
				reached = true
				break
			}
		}
		if !reached {
			name := d.name
			if d.recv != "" {
				name = d.recv + "." + name
			}
			out = append(out, fmt.Sprintf("%s:%d %s", d.file, fset.Position(d.pos).Line, name))
		}
	}
	return out, nil
}

// recvType is the receiver's type name without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

func allowed(file, recv, name string) bool {
	for key := range reachAllow {
		if strings.HasSuffix(key, "/") && strings.HasPrefix(file, key) {
			return true
		}
	}
	if recv == "" {
		return false
	}
	_, anyRecv := reachAllow[name]
	_, thisRecv := reachAllow[recv+"."+name]
	return anyRecv || thisRecv
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
// exactly the three functions without a lake-path caller.
func TestUncalledFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/p/p.go": `package p

type byName []string

func (s byName) Less(i, j int) bool { return s[i] < s[j] }

func Orphan() int { return Orphan() }

func TestOnly() {}

func ExampleOnly() {}

func Used() {}
`,
		"internal/p/p_test.go": `package p

func helper() { TestOnly() }
`,
		"examples/demo/main.go": `package main

import "x/internal/p"

func main() { p.ExampleOnly() }
`,
		"cmd/tool/main.go": `package main

import "x/internal/p"

func main() { p.Used() }
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
		"internal/p/p.go:7 Orphan",
		"internal/p/p.go:9 TestOnly",
		"internal/p/p.go:11 ExampleOnly",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("uncalled flagged\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
