package fuzzer

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRegressOracleReplay replays the checked-in repro corpus through the
// oracle each file names in its "# fuzz: oracle=" comment. A file is a
// scenario script exactly as Render prints it: the case is its parse, and
// internal/scenario's TestRegressCorpus runs the same script checking its
// expect lines. The corpus holds minimized configs that once violated
// their oracle; on fixed code the oracle must stay quiet.
func TestRegressOracleReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "scenario", "testdata", "regress", "*.txt"))
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
			cfg, oracle, err := ParseRendered(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if oracle == "" {
				t.Fatal("repro carries no oracle comment")
			}
			if got := cfg.Render(oracle); got != string(src) {
				t.Errorf("file is not in printed form; Render gives:\n%s", got)
			}
			v, err := CheckOne(cfg, oracle)
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if v != nil {
				t.Fatalf("regressed: %s", v)
			}
		})
	}
}
