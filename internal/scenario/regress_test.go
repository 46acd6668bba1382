package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRegressCorpus replays every checked-in fuzzer repro in
// testdata/regress. Each file is a scenario minimized from a campaign
// violation (or a hand-reduced equivalent) of a bug that has since been
// fixed; its expect lines pin the fixed behavior, so a failure here means
// the bug came back. A fuzz case is a scenario, so the file is the case
// itself: internal/fuzzer's TestRegressOracleReplay parses the same script
// and re-runs the oracle its "# fuzz: oracle=" comment names.
func TestRegressCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "regress", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no regress scenarios found")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !rep.Passed() {
				for _, f := range rep.Failures() {
					t.Errorf("line %d: %s (measured %g)", f.Line, f.Text, f.Measured)
				}
			}
		})
	}
}
