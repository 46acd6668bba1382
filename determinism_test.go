package marlin_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/determinism.txt with this checkout's hashes")

// recordFile is the determinism record: one line a record, its name, a
// shell command and the SHA-256 of the command's standard output.
const recordFile = "testdata/determinism.txt"

// TestDeterminismRecord reruns every record of the determinism record with
// marlinctl and bench built from this checkout and names each record whose
// output hash moved. With -update it writes the new hashes instead.
func TestDeterminismRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("builds marlinctl and bench and runs a fuzz campaign")
	}
	data, err := os.ReadFile(recordFile)
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, pkg := range []string{"./cmd/marlinctl", "./bench"} {
		if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	env := append(os.Environ(), "PATH="+bin+string(filepath.ListSeparator)+os.Getenv("PATH"))

	lines := strings.SplitAfter(string(data), "\n")
	records := 0
	for i, line := range lines {
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(strings.TrimSuffix(line, "\n"), "\t")
		if len(f) != 3 {
			t.Fatalf("%s:%d: want name, command and SHA-256 separated by tabs", recordFile, i+1)
		}
		name, command, want := f[0], f[1], f[2]
		records++
		cmd := exec.Command("sh", "-c", command)
		cmd.Env = env
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Errorf("record %s: %v\n  command: %s\n%s", name, err, command, stderr.String())
			continue
		}
		sum := sha256.Sum256(out)
		got := hex.EncodeToString(sum[:])
		if *update {
			lines[i] = name + "\t" + command + "\t" + got + "\n"
			continue
		}
		if got != want {
			t.Errorf("record %s moved: output hashes to %s, the record holds %s\n  command: %s", name, got, want, command)
		}
	}
	if records == 0 {
		t.Fatalf("%s holds no records", recordFile)
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(recordFile, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
