package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// keptWithoutCaller lists the production declarations under internal/
// that no binary, example or bench file uses, and why each stays. Keys
// are "<dir>.<Name>" or "<dir>.<Recv>.<Name>" with dir relative to the
// module root.
var keptWithoutCaller = map[string]string{
	"internal/model.ContactProbability":             "states Eq. 3, the probability that a pair meets within the deadline",
	"internal/model.CostSingleCopy":                 "states the single-copy cost of Sec. IV-C, K+1 forwardings",
	"internal/model.PathAnonymitySingleCopy":        "states the single-copy path anonymity of Eqs. 15 and 19",
	"internal/numeric.StirlingLogFactorial":         "the paper's Stirling approximation, from which Eq. 19 is derived",
	"internal/core.Trial.Eta":                       "the paper's eta, the hop count K+1, shown in core's Example",
	"internal/node.Network.DriveTrace":              "the reference driver of the cluster differential suites",
	"internal/stats.KSSameDistribution":             "the two-sample KS test that three packages' tests share",
	"internal/groups.Directory.ProvisionHybridKeys": "public-key sealing, the stand-in for the ABE trust split; no binary provisions it yet",
	"internal/cluster.Daemon.Restart":               "the in-process crash/rejoin path the fault suites drive, on which an operator restart builds",
}

// leanExemptMethods are the standard-library interface methods that
// reach a method without naming it.
var leanExemptMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// TestProductionCodeHasAProductionCaller fails for any top-level func,
// method or type under internal/ that no non-test Go file in the
// module, its examples or the bench module uses, unless
// keptWithoutCaller names it. Production code is what a binary
// reaches; a helper only tests call belongs in a _test.go file.
func TestProductionCodeHasAProductionCaller(t *testing.T) {
	start := time.Now()
	orphans, declared, err := leanScan(".", true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scanned %d declarations in %v", len(declared), time.Since(start).Round(time.Millisecond))
	for key, reason := range keptWithoutCaller {
		if reason == "" {
			t.Errorf("keptWithoutCaller[%q] gives no reason", key)
		}
		if !declared[key] {
			t.Errorf("keptWithoutCaller[%q] is stale: no such declaration", key)
		} else if _, orphan := orphans[key]; !orphan {
			t.Errorf("keptWithoutCaller[%q] is stale: production code now uses it", key)
		}
	}
	var keys []string
	for key := range orphans {
		if _, kept := keptWithoutCaller[key]; !kept {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Errorf("%s: %s has no production caller; delete it, move it into a _test.go file, or list it in keptWithoutCaller", orphans[key], key)
	}
}

// TestLeanScanResolvesUses runs the scan on a fixture module whose one
// orphan, Stamp.After, shares its name with time.Time.After, and whose
// Stamp.Tick is reached only through an interface. Matching bare names
// misses the orphan; resolving uses finds it and nothing else.
func TestLeanScanResolvesUses(t *testing.T) {
	for _, tc := range []struct {
		resolve bool
		want    string
	}{{true, "internal/clock.Stamp.After"}, {false, ""}} {
		orphans, _, err := leanScan("testdata/leanfixture", tc.resolve)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for key := range orphans {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, " "); got != tc.want {
			t.Errorf("resolve=%v: orphans %q, want %q", tc.resolve, got, tc.want)
		}
	}
}

// keptUnwritten lists the struct fields under internal/ that no
// non-test code writes, and why each stays. Keys are
// "<dir>.<Type>.<Field>" with dir relative to the module root.
var keptUnwritten = map[string]string{}

// leanDefaulters are the method names that fill a type's zero fields
// with defaults. A default that nothing else overrides is a constant,
// so a write to the receiver inside one of them does not count.
var leanDefaulters = map[string]bool{"filled": true, "fill": true, "setDefaults": true, "withDefaults": true}

// TestProductionFieldsHaveAProductionWriter fails for any field of a
// top-level struct type under internal/ that no non-test Go file in
// the module, its examples or the bench module sets, unless
// keptUnwritten names it. A field only tests or its own defaulting
// method set is a knob no binary turns: make it a constant or delete
// it.
func TestProductionFieldsHaveAProductionWriter(t *testing.T) {
	start := time.Now()
	unwritten, declared, err := leanFieldScan(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scanned %d fields in %v", len(declared), time.Since(start).Round(time.Millisecond))
	for key, reason := range keptUnwritten {
		if reason == "" {
			t.Errorf("keptUnwritten[%q] gives no reason", key)
		}
		if !declared[key] {
			t.Errorf("keptUnwritten[%q] is stale: no such field", key)
		} else if _, ok := unwritten[key]; !ok {
			t.Errorf("keptUnwritten[%q] is stale: production code now writes it", key)
		}
	}
	var keys []string
	for key := range unwritten {
		if _, kept := keptUnwritten[key]; !kept {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Errorf("%s: %s has no production writer; make it a constant, delete it, or list it in keptUnwritten", unwritten[key], key)
	}
}

// TestLeanFieldScanCountsWrites runs the field scan on the fixture
// module. Of knob.Config, Burst is set only by a test and Depth only
// by its defaulting method; every other field is written, and
// knob.Pump.stat only through the nested selector p.stat.Sent.
func TestLeanFieldScanCountsWrites(t *testing.T) {
	unwritten, declared, err := leanFieldScan("testdata/leanfixture")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for key := range unwritten {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	want := "internal/knob.Config.Burst internal/knob.Config.Depth"
	if got := strings.Join(keys, " "); got != want {
		t.Errorf("unwritten %q, want %q", got, want)
	}
	if !declared["internal/knob.Pump.stat"] {
		t.Error("internal/knob.Pump.stat, written through a nested selector, was not scanned")
	}
}

// leanFieldScan returns the fields of top-level struct types under
// root's internal/ that no non-test code under root writes, keyed as in
// keptUnwritten and mapped to their position, with the set of every
// key it examined. A field is written where code assigns it (also
// through a nested or indexed selector, x.f.g = v or x.f[i] = v),
// applies ++ or -- to it, takes its address, calls a method on it, or
// fills it in a composite literal. Embedded fields and fields with a
// struct tag, which decoders set by reflection, are not examined.
func leanFieldScan(root string) (unwritten map[string]token.Position, declared map[string]bool, err error) {
	fset, pkgs, err := leanLoaded(root)
	if err != nil {
		return nil, nil, err
	}
	keys := map[*types.Var]string{}
	for _, p := range pkgs {
		if !leanScanned(p.rel) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := p.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
					if !ok {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						if fv := st.Field(i); !fv.Embedded() && fv.Name() != "_" && st.Tag(i) == "" {
							keys[fv] = p.rel + "." + ts.Name.Name + "." + fv.Name()
						}
					}
				}
			}
		}
	}

	written := map[*types.Var]bool{}
	for _, p := range pkgs {
		info := p.info
		for _, f := range p.files {
			for _, d := range f.Decls {
				// Inside a defaulting method, writes rooted at the
				// receiver do not count.
				var recv types.Object
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && leanDefaulters[fd.Name.Name] && len(fd.Recv.List[0].Names) > 0 {
					recv = info.Defs[fd.Recv.List[0].Names[0]]
				}
				target := func(e ast.Expr) {
					var sel []*types.Var
					for {
						switch x := e.(type) {
						case *ast.ParenExpr:
							e = x.X
							continue
						case *ast.StarExpr:
							e = x.X
							continue
						case *ast.IndexExpr:
							e = x.X
							continue
						case *ast.SelectorExpr:
							if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
								sel = append(sel, s.Obj().(*types.Var))
								e = x.X
								continue
							}
						case *ast.Ident:
							if recv != nil && info.Uses[x] == recv {
								return
							}
						}
						break
					}
					for _, v := range sel {
						written[v.Origin()] = true
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							target(lhs)
						}
					case *ast.RangeStmt:
						if n.Tok == token.ASSIGN {
							target(n.Key)
							target(n.Value)
						}
					case *ast.IncDecStmt:
						target(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							target(n.X)
						}
					case *ast.SelectorExpr:
						if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
							target(n.X)
						}
					case *ast.CompositeLit:
						tv, ok := info.Types[n]
						if !ok {
							break
						}
						st, ok := tv.Type.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
									written[v.Origin()] = true
								}
							} else {
								written[st.Field(i).Origin()] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	unwritten = map[string]token.Position{}
	declared = map[string]bool{}
	for v, key := range keys {
		declared[key] = true
		if !written[v] {
			unwritten[key] = fset.Position(v.Pos())
		}
	}
	return unwritten, declared, nil
}

// leanScanned reports whether the lean scans examine the declarations
// of the package in directory rel: those under internal/, apart from
// the Prometheus test helper.
func leanScanned(rel string) bool {
	return strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "internal/obs/promtest")
}

// leanScan type-checks every non-test Go package under root, one module
// per go.mod, and returns the top-level funcs, methods and types under
// root's internal/ that nothing outside their own declaration uses,
// keyed as in keptWithoutCaller and mapped to their position, with the
// set of every key it examined. A method is not examined if it is
// named in leanExemptMethods, or if its type implements an interface
// that holds it and that the scanned code names or holds a value as: a
// call through the interface resolves to the interface, not the
// method. With resolve false, a use is any identifier of the same
// name, which is all a scan without type information can see.
func leanScan(root string, resolve bool) (orphans map[string]token.Position, declared map[string]bool, err error) {
	fset, pkgs, err := leanLoaded(root)
	if err != nil {
		return nil, nil, err
	}
	type decl struct {
		key  string
		obj  types.Object
		own  []ast.Node // where a use does not count: the declaration, and a type's method receivers
		recv *types.Named
	}
	var decls []*decl
	byObj := map[types.Object]*decl{}
	ifaces := map[*types.Interface]bool{}
	for _, p := range pkgs {
		for _, objs := range []map[*ast.Ident]types.Object{p.info.Defs, p.info.Uses} {
			for _, obj := range objs {
				switch obj.(type) {
				case *types.TypeName, *types.Var:
					if it, ok := obj.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						ifaces[it] = true
					}
				}
			}
		}
		if !leanScanned(p.rel) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "init" || d.Name.Name == "_" {
						continue
					}
					obj := p.info.Defs[d.Name]
					dc := &decl{key: p.rel + "." + d.Name.Name, obj: obj, own: []ast.Node{d}}
					if d.Recv != nil {
						sig := obj.Type().(*types.Signature)
						recv := sig.Recv().Type()
						if ptr, ok := recv.(*types.Pointer); ok {
							recv = ptr.Elem()
						}
						dc.recv = recv.(*types.Named)
						dc.key = p.rel + "." + dc.recv.Obj().Name() + "." + d.Name.Name
					}
					decls = append(decls, dc)
					byObj[obj] = dc
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name != "_" {
							obj := p.info.Defs[ts.Name]
							dc := &decl{key: p.rel + "." + ts.Name.Name, obj: obj, own: []ast.Node{ts}}
							decls = append(decls, dc)
							byObj[obj] = dc
						}
					}
				}
			}
		}
	}
	// A type's own method receivers do not use it.
	for _, dc := range decls {
		if dc.recv != nil {
			if owner := byObj[dc.recv.Obj()]; owner != nil {
				fd := dc.own[0].(*ast.FuncDecl)
				owner.own = append(owner.own, fd.Recv)
			}
		}
	}

	usedObj := map[types.Object]bool{}
	usedName := map[string]bool{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if dc := byObj[obj]; dc != nil && within(id.Pos(), dc.own) {
				continue
			}
			usedObj[obj] = true
			usedName[id.Name] = true
		}
	}

	orphans = map[string]token.Position{}
	declared = map[string]bool{}
	for _, dc := range decls {
		if dc.recv != nil && satisfiesInterface(dc.recv, dc.obj.Name(), ifaces) {
			continue
		}
		declared[dc.key] = true
		used := usedObj[dc.obj]
		if !resolve {
			used = usedName[dc.obj.Name()]
		}
		if !used {
			orphans[dc.key] = fset.Position(dc.obj.Pos())
		}
	}
	return orphans, declared, nil
}

// within reports whether pos falls inside any of nodes.
func within(pos token.Pos, nodes []ast.Node) bool {
	for _, n := range nodes {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// satisfiesInterface reports whether method name of recv is reached
// through an interface: a standard one in leanExemptMethods, or one of
// ifaces that recv or *recv implements.
func satisfiesInterface(recv *types.Named, name string, ifaces map[*types.Interface]bool) bool {
	if leanExemptMethods[name] {
		return true
	}
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name &&
				(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// leanPkg is one type-checked package of a leanLoad.
type leanPkg struct {
	rel   string // directory relative to the scan root, slash-separated
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// leanLoads memoizes leanLoad per root, so the scans of one test run
// type-check each tree once.
var (
	leanMu    sync.Mutex
	leanLoads = map[string]*leanLoadResult{}
)

type leanLoadResult struct {
	fset *token.FileSet
	pkgs []*leanPkg
	err  error
}

// leanLoaded returns leanLoad(root), loading it on first use.
func leanLoaded(root string) (*token.FileSet, []*leanPkg, error) {
	leanMu.Lock()
	defer leanMu.Unlock()
	r, ok := leanLoads[root]
	if !ok {
		r = &leanLoadResult{}
		r.fset, r.pkgs, r.err = leanLoad(root)
		leanLoads[root] = r
	}
	return r.fset, r.pkgs, r.err
}

// leanLoad parses and type-checks the non-test files of every package
// under root, skipping testdata and hidden directories. Import paths
// come from the nearest enclosing go.mod; anything else is imported
// from the standard library's source.
func leanLoad(root string) (*token.FileSet, []*leanPkg, error) {
	// The source importer type-checks the standard library; without cgo
	// it needs no C toolchain.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()

	fset := token.NewFileSet()
	ipaths := map[string]string{}   // directory -> import path
	byPath := map[string]*leanPkg{} // import path -> package
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dir, name := filepath.Dir(p), d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if mod, err := modulePath(filepath.Join(p, "go.mod")); err == nil {
				ipaths[p] = mod
			} else if parent, ok := ipaths[dir]; ok && p != root {
				ipaths[p] = parent + "/" + name
			} else {
				return fmt.Errorf("%s: no go.mod at or above it under %s", p, root)
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := byPath[ipaths[dir]]
		if pkg == nil {
			rel, _ := filepath.Rel(root, dir)
			pkg = &leanPkg{rel: filepath.ToSlash(rel), info: &types.Info{
				Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
				Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
			}}
			byPath[ipaths[dir]] = pkg
		}
		pkg.files = append(pkg.files, f)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	std := importer.ForCompiler(fset, "source", nil)
	var imp importerFunc
	imp = func(ipath string) (*types.Package, error) {
		p, ok := byPath[ipath]
		if !ok {
			return std.Import(ipath)
		}
		if p.types == nil {
			conf := types.Config{Importer: imp}
			var err error
			if p.types, err = conf.Check(ipath, fset, p.files, p.info); err != nil {
				return nil, err
			}
		}
		return p.types, nil
	}
	paths := make([]string, 0, len(byPath))
	for ipath := range byPath {
		paths = append(paths, ipath)
	}
	sort.Strings(paths)
	pkgs := make([]*leanPkg, len(paths))
	for i, ipath := range paths {
		if _, err := imp(ipath); err != nil {
			return nil, nil, err
		}
		pkgs[i] = byPath[ipath]
	}
	return fset, pkgs, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
