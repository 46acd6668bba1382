package lint

import (
	"fmt"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sharedLoader memoizes type-checked packages (including the standard
// library, loaded from source) across all tests in this package.
var sharedLoader = struct {
	once sync.Once
	l    *Loader
	err  error
}{}

func loader(t *testing.T) *Loader {
	t.Helper()
	sharedLoader.once.Do(func() {
		sharedLoader.l, sharedLoader.err = NewLoader(".")
	})
	if sharedLoader.err != nil {
		t.Fatalf("NewLoader: %v", sharedLoader.err)
	}
	return sharedLoader.l
}

// runFixture analyzes one testdata package with the named checks and
// renders each diagnostic as "file.go:line check" for golden comparison.
func runFixture(t *testing.T, fixture, checkNames string) []string {
	t.Helper()
	pkg, err := loader(t).LoadDir(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	checks, err := SelectChecks(checkNames)
	if err != nil {
		t.Fatalf("SelectChecks(%q): %v", checkNames, err)
	}
	var got []string
	for _, d := range Run([]*Package{pkg}, checks) {
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Check))
	}
	return got
}

func TestFixtureDiagnostics(t *testing.T) {
	cases := []struct {
		fixture string
		checks  string
		want    []string
	}{
		{"wallclock_bad", "wallclock", []string{
			"wallclock_bad.go:12 wallclock", // time.Now
			"wallclock_bad.go:13 wallclock", // time.Sleep
			"wallclock_bad.go:19 wallclock", // time.Since
		}},
		// A global math/rand draw is rngsource's, in every package.
		{"wallclock_bad", "rngsource", []string{
			"wallclock_bad.go:6 rngsource",  // math/rand import
			"wallclock_bad.go:14 rngsource", // rand.Int63
		}},
		{"wallclock_clean", "wallclock", nil},
		{"maporder_bad", "maporder", []string{
			"maporder_bad.go:14 maporder", // unsorted append
			"maporder_bad.go:23 maporder", // float accumulation
			"maporder_bad.go:31 maporder", // fmt.Println
			"maporder_bad.go:38 maporder", // event scheduling
		}},
		{"maporder_clean", "maporder", nil},
		// detflow leaves map ranges to maporder.
		{"maporder_bad", "detflow", nil},
		{"rngsource_bad", "rngsource", []string{
			"aqm_bad.go:7 rngsource",        // math/rand import in a discipline
			"aqm_bad.go:12 rngsource",       // rand.Float64 from the global source
			"aqm_bad.go:18 rngsource",       // rand.New for a queue's mark stream
			"aqm_bad.go:18 rngsource",       // rand.NewSource seeded off-config
			"pattern_bad.go:6 rngsource",    // math/rand/v2 import
			"pattern_bad.go:11 rngsource",   // randv2.New
			"pattern_bad.go:11 rngsource",   // randv2.NewPCG
			"rngsource_bad.go:5 rngsource",  // math/rand import
			"rngsource_bad.go:10 rngsource", // rand.New
			"rngsource_bad.go:10 rngsource", // rand.NewSource
		}},
		{"rngsource_clean", "rngsource", nil},
		// simtime went: a host-time type in a real model API fails to compile
		// against its sim-typed callers (drill T1-T4), and no survivor
		// reports these declarations.
		{"simtime_bad", "", nil},
		{"simtime_clean", "", nil},
		// poolflow catches the block-local use-after-Release cases, also on
		// a packet a closure captured or a package-level one...
		{"poolmisuse_bad", "poolflow", []string{
			"poolmisuse_bad.go:10 poolflow", // field read after Release
			"poolmisuse_bad.go:16 poolflow", // double Release
			"poolmisuse_bad.go:22 poolflow", // forwarded after Release
			"poolmisuse_bad.go:29 poolflow", // use after Release in branch
			"poolmisuse_bad.go:38 poolflow", // closure reads a captured packet it released
			"poolmisuse_bad.go:48 poolflow", // package-level packet handed on after Release
		}},
		{"poolmisuse_clean", "poolflow", nil},
		// Every violation in poolflow_bad crosses a function boundary, and
		// no other check finds any of them, so poolflow is their only
		// guard...
		{"poolflow_bad", "-poolflow", nil},
		// ...and its callee summaries catch all of them.
		{"poolflow_bad", "poolflow", []string{
			"poolflow_bad.go:21 poolflow", // use after consuming callee
			"poolflow_bad.go:28 poolflow", // double Release across calls
			"poolflow_bad.go:41 poolflow", // use after Receive handoff
			"poolflow_bad.go:46 poolflow", // leak on early return
			"poolflow_bad.go:57 poolflow", // leak of a (*packet.Pool) packet
		}},
		{"poolflow_clean", "poolflow", nil},
		// simunits went: every unscaled ns/ps conversion in real code fails a
		// tier-1 test (drill U1-U4). Of its fixture, the survivors see only
		// the host-clock read.
		{"simunits_bad", "", []string{
			"aqm_bad.go:15 wallclock", // time.Since
		}},
		{"simunits_clean", "", nil},
		{"detflow_bad", "detflow", []string{
			"detflow_bad.go:10 detflow", // goroutine in model code
			"detflow_bad.go:15 detflow", // select in model code
			"detflow_bad.go:40 detflow", // goroutine reachable from callback
			"handler.go:12 detflow",     // goroutine in a scheduled Handler's Fire
			"handler.go:26 detflow",     // goroutine in an unscheduled Fire
		}},
		// Map-iteration dataflow escaping the loop is maporder's.
		{"detflow_bad", "maporder", []string{
			"detflow_bad.go:48 maporder", // last-writer-wins map flow
			"detflow_bad.go:58 maporder", // plain-assign float accumulation
		}},
		{"detflow_clean", "detflow", nil},
		{"detflow_clean", "maporder", nil},
		// The joined-goroutine exemption boundary: every goroutine here touches
		// shared state without a join that orders its writes...
		{"shardsync_bad", "detflow", []string{
			"shardsync_bad.go:13 detflow", // free-running goroutine
			"shardsync_bad.go:22 detflow", // Done with no Wait after the spawn
			"shardsync_bad.go:33 detflow", // Wait precedes the spawn
			"shardsync_bad.go:63 detflow", // stored body, never waited on
			"shardsync_bad.go:70 detflow", // a stored body skips Done
			"shardsync_bad.go:71 detflow", // stored named function
		}},
		// ...while the shard runner's barrier and crew shapes are accepted.
		{"shardsync_clean", "detflow", nil},
		// The mutation drill's unique catches: under every surviving check,
		// each mutant is reported by its own check alone.
		{"drill_bad", "", []string{
			"detflow.go:10 detflow",     // D3: two goroutines race for a coin
			"detflow.go:11 detflow",     // D3: the second
			"maporder.go:8 maporder",    // M2: last-writer-wins bar scale
			"poolflow.go:16 poolflow",   // P1: drop bytes read after Release
			"rngsource.go:4 rngsource",  // R7: math/rand import
			"rngsource.go:12 rngsource", // R7: sizes seeded from the global source
			"wallclock.go:15 wallclock", // W2: host clock in a loss coin
		}},
		{"directive_bad", "wallclock", []string{
			"directive_bad.go:11 wallclock", // unjustified allow must not suppress
			"directive_bad.go:11 directive", // allow without justification
			"directive_bad.go:14 directive", // unknown check name
			"directive_bad.go:17 directive", // allow naming no check
		}},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			got := runFixture(t, tc.fixture, tc.checks)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("diagnostics mismatch\n got: %v\nwant: %v", got, tc.want)
			}
		})
	}
}

// A type scheduled as a sim.Handler runs its Fire method from the engine,
// so a goroutine there is reported as reachable from an engine callback;
// the same goroutine in a Fire method nothing schedules is not.
func TestDetflowSeesHandlerFire(t *testing.T) {
	pkg, err := loader(t).LoadDir(filepath.Join("testdata", "src", "detflow_bad"))
	if err != nil {
		t.Fatal(err)
	}
	checks, err := SelectChecks("detflow")
	if err != nil {
		t.Fatal(err)
	}
	reached := map[int]bool{}
	for _, d := range Run([]*Package{pkg}, checks) {
		if filepath.Base(d.Pos.Filename) == "handler.go" {
			reached[d.Pos.Line] = strings.Contains(d.Msg, "reachable from an engine callback")
		}
	}
	if want := map[int]bool{12: true, 26: false}; !reflect.DeepEqual(reached, want) {
		t.Errorf("handler.go goroutines reachable from an engine callback, by line: %v, want %v", reached, want)
	}
}

// TestRepoIsClean is the determinism gate on the tree itself: every package
// of the module, all checks, zero diagnostics. It exercises the host-side
// exemptions and every //marlin:allow directive in the repo for real.
func TestRepoIsClean(t *testing.T) {
	l := loader(t)
	dirs, err := ExpandPatterns(l.ModuleDir, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) < 15 {
		t.Fatalf("expected to load the whole module, got only %d packages", len(pkgs))
	}
	for _, d := range Run(pkgs, AllChecks()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestLoaderTypeChecksOnce pins what makes one marlinvet pass cheap: every
// package is parsed and type-checked once per Loader. A second LoadDir of a
// package, and a LoadDir of a package first loaded as another's
// dependency, both return the cached *Package.
func TestLoaderTypeChecksOnce(t *testing.T) {
	shared := loader(t)
	// A fresh module cache over the shared standard-library importer, so the
	// test sees the first load of each module package.
	l := &Loader{Fset: shared.Fset, ModulePath: shared.ModulePath, ModuleDir: shared.ModuleDir,
		std: shared.std, pkgs: make(map[string]*Package)}
	flowtab, err := l.LoadDir(filepath.Join("..", "flowtab")) // imports packet, which imports sim
	if err != nil {
		t.Fatal(err)
	}
	if len(l.pkgs) != 3 {
		t.Fatalf("loading flowtab cached %d module packages, want 3 (flowtab, packet, sim)", len(l.pkgs))
	}
	again, err := l.LoadDir(filepath.Join("..", "flowtab"))
	if err != nil || again != flowtab {
		t.Fatalf("second LoadDir of flowtab returned a new package (err %v)", err)
	}
	var dep *types.Package
	for _, imp := range flowtab.Types.Imports() {
		if imp.Path() == "marlin/internal/packet" {
			dep = imp
		}
	}
	packet, err := l.LoadDir(filepath.Join("..", "packet"))
	if err != nil || dep == nil || packet.Types != dep {
		t.Fatalf("LoadDir of packet after loading it as flowtab's dependency type-checked it again (err %v)", err)
	}
	if len(l.pkgs) != 3 {
		t.Fatalf("reloads grew the cache to %d packages, want 3", len(l.pkgs))
	}
}

func TestHostSide(t *testing.T) {
	for path, want := range map[string]bool{
		"marlin/internal/fleet":    true,
		"marlin/cmd/marlinctl":     true,
		"marlin/examples/customcc": true,
		"marlin/internal/lint":     true,
		"marlin":                   false,
		"marlin/internal/sim":      false,
		"marlin/internal/scenario": false,
		"marlin/internal/fpga":     false,
	} {
		if got := HostSide(path); got != want {
			t.Errorf("HostSide(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestExpandPatternsSkipsTestdata(t *testing.T) {
	l := loader(t)
	dirs, err := ExpandPatterns(l.ModuleDir, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	for _, d := range dirs {
		if filepath.Base(filepath.Dir(d)) == "src" && filepath.Base(filepath.Dir(filepath.Dir(d))) == "testdata" {
			t.Errorf("pattern expansion descended into testdata: %s", d)
		}
	}
}

func TestSelectChecks(t *testing.T) {
	all, err := SelectChecks("")
	if err != nil || len(all) != 5 {
		t.Fatalf("SelectChecks(\"\") = %d checks, err %v; want 5, nil", len(all), err)
	}
	two, err := SelectChecks("wallclock,rngsource")
	if err != nil || len(two) != 2 {
		t.Fatalf("SelectChecks subset: got %d checks, err %v", len(two), err)
	}
	if _, err := SelectChecks("bogus"); err == nil {
		t.Fatal("SelectChecks(\"bogus\") did not error")
	}
	// A "-name" entry removes the check from the selection.
	without, err := SelectChecks("-poolflow")
	if err != nil || len(without) != 4 {
		t.Fatalf("SelectChecks(\"-poolflow\") = %d checks, err %v; want 4, nil", len(without), err)
	}
	for _, c := range without {
		if c.Name == "poolflow" {
			t.Fatal("SelectChecks(\"-poolflow\") still contains poolflow")
		}
	}
	mixed, err := SelectChecks("wallclock,rngsource,-rngsource")
	if err != nil || len(mixed) != 1 || mixed[0].Name != "wallclock" {
		t.Fatalf("SelectChecks mixed add/remove: got %v, err %v", mixed, err)
	}
	if _, err := SelectChecks("-bogus"); err == nil {
		t.Fatal("SelectChecks(\"-bogus\") did not error")
	}
}

// TestDetflowReachability pins the call-graph annotation: a goroutine inside
// a helper reachable from a scheduled callback carries the reachability
// note, and one in an unconnected function does not.
func TestDetflowReachability(t *testing.T) {
	pkg, err := loader(t).LoadDir(filepath.Join("testdata", "src", "detflow_bad"))
	if err != nil {
		t.Fatalf("loading detflow_bad: %v", err)
	}
	checks, err := SelectChecks("detflow")
	if err != nil {
		t.Fatal(err)
	}
	byLine := make(map[int]string)
	for _, d := range Run([]*Package{pkg}, checks) {
		byLine[d.Pos.Line] = d.Msg
	}
	const note = "reachable from an engine callback"
	if msg := byLine[40]; !strings.Contains(msg, note) {
		t.Errorf("goroutine in scheduled helper lacks reachability note: %q", msg)
	}
	if msg := byLine[10]; strings.Contains(msg, note) {
		t.Errorf("goroutine in unconnected function has spurious reachability note: %q", msg)
	}
}
