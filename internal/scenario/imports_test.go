package scenario

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"stopwatch"
)

// TestImportFences: the scenario harness is a pure client of the control
// plane, and the fleet CLI is a pure client of the harness.
//
// internal/scenario's production sources may import the standard library,
// the stopwatch façade, and — as the one sanctioned internal vocabulary —
// the netsim fault-injection surface. Nothing else: reaching into
// internal/core, internal/vmm or internal/controlplane here would silently
// grow a private side-channel past the operations API this package exists
// to prove sufficient.
//
// cmd/stopwatch-sim's may import the standard library and this package: a
// driver that builds clusters itself is a second way to drive a fleet,
// which is what scenario files replaced.
//
// No production source in the root module (bench/ is its own module)
// imports net, net/http or runtime/pprof: a run's observability is its
// output — the verdicts, the op log, -metrics-out — and profiling is
// `go test -cpuprofile` or the bench's traced pass.
func TestImportFences(t *testing.T) {
	for dir, allowed := range map[string]map[string]bool{
		".": {
			"stopwatch":                 true,
			"stopwatch/internal/netsim": true,
		},
		"../../cmd/stopwatch-sim": {
			"stopwatch/internal/scenario": true,
		},
	} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(path, "stopwatch") {
					if !allowed[path] {
						t.Errorf("%s/%s imports %s, outside its fence", dir, name, path)
					}
					continue
				}
				if strings.Contains(strings.SplitN(path, "/", 2)[0], ".") {
					t.Errorf("%s/%s imports non-stdlib package %s", dir, name, path)
				}
			}
		}
	}
	const root = "../.."
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(root, "bench") || d.Name() == "testdata" || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); p {
			case "net", "net/http", "runtime/pprof":
				t.Errorf("%s imports %s", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestControlPlaneAPIFence: Apply is the only way to mutate a fleet. The
// exported method set of *ControlPlane is this list — one mutating entry,
// the three policy switches, and reads. A per-verb convenience method
// (Admit, Evict, DrainHost, Migrate, …: nine existed once) is a second way
// in that tests and tools then grow around; add the op to Apply's sum
// instead, and extend this list only for a new read.
func TestControlPlaneAPIFence(t *testing.T) {
	want := []string{
		"Apply",
		"Cluster", "Failed", "InFlight", "Log", "Outcome", "Pool", "Stats", "Utilization", "Verify", "Watch",
		"EnablePlannedMigration", "EnableStallDetector",
		"InstrumentMetrics",
	}
	slices.Sort(want)
	typ := reflect.TypeOf((*stopwatch.ControlPlane)(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("exported methods of *ControlPlane:\n got %v\nwant %v", got, want)
	}
}
