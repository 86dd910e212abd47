package mcnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// cmdRef matches a command named by its directory: "./cmd/<name>" or a bare
// "cmd/<name>" token. A longer path such as golang.org/x/perf/cmd/benchstat
// names another module's command and does not match.
var cmdRef = regexp.MustCompile(`(?:^|[^\w./-]|\./)cmd/([\w-]+)`)

// verifySkill is the verify skill's notes on building and driving the repo.
var verifySkill = filepath.Join(".claude", "skills", "verify", "SKILL.md")

// TestDocsNameExistingCommands fails when a document still names a command
// whose directory under cmd/ is gone.
func TestDocsNameExistingCommands(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", "doc.go", "Makefile", verifySkill}
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d names cmd/%s, which is not a directory under cmd/", doc, i+1, m[1])
				}
			}
		}
	}
}

// cmdRun matches a command run from its directory, "./cmd/<name>", and the
// rest of its command line: everything up to a code span's end, a shell
// operator or a comment. flagRef matches one flag of that line, "-name",
// "--name" or "-name=value"; a lone "-" or a negative number does not match.
var (
	cmdRun  = regexp.MustCompile(`\./cmd/([\w-]+)([^` + "`" + `|;&<>#)]*)`)
	flagRef = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=.*)?$`)
)

// TestDocsNameExistingFlags fails when a document runs a command with a
// flag that the command's FlagSet does not define.
func TestDocsNameExistingFlags(t *testing.T) {
	defined := map[string]map[string]bool{}
	refs := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "doc.go", "Makefile", verifySkill} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range cmdRun.FindAllStringSubmatch(line, -1) {
				cmd := m[1]
				flags, ok := defined[cmd]
				if !ok {
					flags = parseFlags(t, filepath.Join("cmd", cmd))
					defined[cmd] = flags
				}
				for _, tok := range strings.Fields(m[2]) {
					if f := flagRef.FindStringSubmatch(tok); f != nil {
						refs++
						if !flags[f[1]] {
							t.Errorf("%s:%d runs cmd/%s with -%s, which its FlagSet does not define", doc, i+1, cmd, f[1])
						}
					}
				}
			}
		}
	}
	if refs == 0 {
		t.Fatal("no flag of a ./cmd/<name> command line found in the documents")
	}
}

// parseFlags returns the flags the non-test files of a command's directory
// define: the name argument of every flag-defining call (fs.String,
// fs.IntVar, ...) given as a string literal, plus the -h and -help every
// FlagSet answers.
func parseFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{"h": true, "help": true}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg := 0
			switch sel.Sel.Name {
			case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Func", "BoolFunc":
			case "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "StringVar", "Float64Var", "DurationVar", "Var", "TextVar":
				arg = 1
			default:
				return true
			}
			if len(call.Args) > arg {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						flags[name] = true
					}
				}
			}
			return true
		})
	}
	return flags
}

// codeSpan matches an inline code span; identRef matches a package-qualified
// name inside one, pkg.Ident or pkg.Type.Member. A path or file name such as
// internal/mcsim/mcsim.go does not match: the package must not follow a word
// character, '.' or '/'. testRef matches a span that is a test, benchmark,
// fuzz or example function's name, with an optional /sub case (the bare
// prefix, as in "`Example` tests", names the kind, not a function); bareRef
// matches a span that is one exported CamelCase identifier, and notIdent
// holds the ones the documents write as code that name no Go declaration.
var (
	codeSpan = regexp.MustCompile("`[^`]+`")
	identRef = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	testRef  = regexp.MustCompile("^`(Test|Benchmark|Fuzz|Example)(\\w*)(?:/[^`]*)?`$")
	bareRef  = regexp.MustCompile("^`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)`$")
	notIdent = map[string]bool{
		"Accept": true, // the HTTP header
		"NaN":    true, // a float's rendering in CSV and JSON
	}
)

// TestDocsNameExistingIdentifiers fails when a document's code span names an
// internal package's declaration, method or struct field that the package's
// non-test files no longer declare. pkg.Ident may name a method or field of
// any of the package's types (des.RegisterFIFO); pkg.Type.Member must name
// one of Type's. A bare span fails too when no file of the repository
// declares it: a Test, Benchmark, Fuzz or Example name must be a function
// of some _test.go file, any other exported CamelCase name a declaration,
// method or field of some non-test file.
func TestDocsNameExistingIdentifiers(t *testing.T) {
	pkgs, tests := repoDecls(t)
	declared := func(name string) bool {
		for _, d := range pkgs {
			if d.names[name] || d.anyMember(name) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md", verifySkill} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, span := range codeSpan.FindAllString(line, -1) {
				if m := testRef.FindStringSubmatch(span); m != nil {
					if name := m[1] + m[2]; m[2] != "" && !tests[name] {
						t.Errorf("%s:%d names %s, which no _test.go file declares", doc, i+1, name)
					}
				} else if m := bareRef.FindStringSubmatch(span); m != nil && !notIdent[m[1]] && !declared(m[1]) {
					t.Errorf("%s:%d names %s, which no non-test file declares", doc, i+1, m[1])
				}
				for _, m := range identRef.FindAllStringSubmatch(span, -1) {
					pkg, name, member := m[1], m[2], m[3]
					dir := filepath.Join("internal", pkg)
					d, ok := pkgs[dir]
					if !ok {
						continue
					}
					if _, err := os.Stat(filepath.Join(dir, pkg+"."+name)); err == nil {
						continue // a file name such as mcsim.go
					}
					ref := pkg + "." + name
					if member != "" {
						ref += "." + member
					}
					switch {
					case member == "" && !d.names[name] && !d.anyMember(name):
						t.Errorf("%s:%d names %s, which package %s does not declare", doc, i+1, ref, pkg)
					case member != "" && !d.names[name]:
						t.Errorf("%s:%d names %s, but package %s declares no %s", doc, i+1, ref, pkg, name)
					case member != "" && !d.members[name][member]:
						t.Errorf("%s:%d names %s, which is no method or field of %s.%s", doc, i+1, ref, pkg, name)
					}
				}
			}
		}
	}
}

// repoDecls parses every directory of the repository, perfbench's module
// included: pkgs holds what each one's non-test files declare, by path, and
// tests the top-level functions of all _test.go files.
func repoDecls(t *testing.T) (pkgs map[string]*pkgDecls, tests map[string]bool) {
	t.Helper()
	pkgs, tests = map[string]*pkgDecls{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		pkgs[dir] = parseDecls(t, dir)
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			return err
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					tests[fn.Name.Name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, tests
}

// pkgDecls is what one package's non-test files declare: top-level names,
// and each type's methods and fields (an embedded field by its type name).
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
}

func parseDecls(t *testing.T, dir string) *pkgDecls {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	d := &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}}
	addMember := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.names[decl.Name.Name] = true
				} else if typ := typeName(decl.Recv.List[0].Type); typ != "" {
					addMember(typ, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.names[n.Name] = true
						}
					case *ast.TypeSpec:
						typ := spec.Name.Name
						d.names[typ] = true
						var fields []*ast.Field
						switch st := spec.Type.(type) {
						case *ast.StructType:
							fields = st.Fields.List
						case *ast.InterfaceType:
							fields = st.Methods.List
						}
						for _, field := range fields {
							for _, n := range field.Names {
								addMember(typ, n.Name)
							}
							if len(field.Names) == 0 {
								if emb := typeName(field.Type); emb != "" {
									addMember(typ, emb)
								}
							}
						}
					}
				}
			}
		}
	}
	return d
}

// typeName is the local type a receiver or embedded field names, "" for
// another package's.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr: // a generic receiver such as freelist.List[E]
		return typeName(e.X)
	}
	return ""
}

// anyMember reports whether some type of the package has the method or
// field member.
func (d *pkgDecls) anyMember(member string) bool {
	for _, m := range d.members {
		if m[member] {
			return true
		}
	}
	return false
}
