package analysis

import (
	"go/ast"
	"go/types"
)

// Deterministic checks functions annotated //rbpc:deterministic (or whole
// packages whose package clause carries the directive): code the chaos
// harness replays from a seed, the owner table every shard must agree on,
// and the corpus files that must be byte-stable across runs.
// Such code must not:
//
//   - range over a map (iteration order is randomized per run),
//   - read the wall clock (time.Now / time.Since),
//   - draw from math/rand's global generator (rand.New(rand.NewSource(seed))
//     and methods on an explicit *rand.Rand are fine — that is the seeded
//     idiom the harness uses), or
//   - format floats through fmt's Sprint family (float-to-string round
//     trips are a classic source of replay divergence; use
//     strconv.FormatFloat with explicit precision, or compare numerically).
var Deterministic = &Analyzer{
	Name: "deterministic",
	Doc:  "replay-critical code must be bit-reproducible",
	Run:  runDeterministic,
}

// detRandAllowed are the math/rand package-level functions a deterministic
// function may call: the constructors of an explicitly seeded source.
var detRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// detSprintFuncs are the fmt formatters whose float handling is policed.
var detSprintFuncs = map[string]bool{
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Appendf": true, "Append": true, "Appendln": true,
}

func runDeterministic(pass *Pass) {
	pkgScoped := pass.Index.DeterministicPkg[pass.Pkg.Path()]
	if !pkgScoped && len(pass.Index.Deterministic) == 0 {
		return
	}
	forEachFunc(pass.Files, pass.Info, func(fn *types.Func, decl *ast.FuncDecl) {
		if !pkgScoped && !pass.Index.Deterministic[FuncKey(fn)] {
			return
		}
		key := FuncKey(fn)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := pass.Info.TypeOf(n.X)
				if t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(),
							"deterministic function %s ranges over a map (iteration order is randomized); collect and sort the keys",
							key)
					}
				}
			case *ast.CallExpr:
				checkDeterministicCall(pass, key, n)
			}
			return true
		})
	})
}

func checkDeterministicCall(pass *Pass, key string, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch fn.Pkg().Path() {
	case "time":
		if !isMethod && (fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until") {
			pass.Reportf(call.Pos(),
				"deterministic function %s reads the wall clock via time.%s; thread a logical clock through instead",
				key, fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Methods on an explicit *rand.Rand are seeded by construction;
		// package-level draws go through the shared global source.
		if !isMethod && !detRandAllowed[fn.Name()] {
			pass.Reportf(call.Pos(),
				"deterministic function %s draws from the global rand source via rand.%s; use rand.New(rand.NewSource(seed))",
				key, fn.Name())
		}
	case "fmt":
		if isMethod || !detSprintFuncs[fn.Name()] {
			return
		}
		for _, arg := range call.Args {
			t := pass.Info.TypeOf(arg)
			if t == nil {
				continue
			}
			if b, ok := t.Underlying().(*types.Basic); ok &&
				(b.Kind() == types.Float32 || b.Kind() == types.Float64 ||
					b.Kind() == types.UntypedFloat) {
				pass.Reportf(arg.Pos(),
					"deterministic function %s formats a float through fmt.%s; use strconv.FormatFloat with explicit precision",
					key, fn.Name())
			}
		}
	}
}
