package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the paper-experiment golden file from this tree's output")

// goldenExperiments is what `snaptask-bench -exp all -quick -seed 7`
// printed to stdout when the file was last regenerated.
var goldenExperiments = filepath.Join("testdata", "experiments_quick_seed7.txt")

// TestPaperExperimentsGolden runs every paper experiment on the small room
// at seed 7 and diffs the printed tables line by line against the golden
// file, so a change that moves a figure fails here. A change that means to
// move one regenerates the file with `go test -run
// TestPaperExperimentsGolden ./cmd/snaptask-bench -update` (the flag goes
// after the package). It skips under -race.
func TestPaperExperimentsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes
		// float results and with them the tables.
		t.Skipf("golden output recorded on amd64, running on %s", runtime.GOARCH)
	}
	if raceEnabled {
		// The experiments run about 7x slower under the race detector
		// (~200 s on 2 cores); CI runs this test in its own step
		// without -race.
		t.Skip("paper experiments are pinned by the run without -race")
	}
	got := captureStdout(t, func() error {
		return run([]string{"-exp", "all", "-quick", "-seed", "7", "-log-level", "warn"})
	})
	if *update {
		if err := os.WriteFile(goldenExperiments, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines)", goldenExperiments, strings.Count(got, "\n"))
		return
	}
	data, err := os.ReadFile(goldenExperiments)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(data), "\n")
	diffs := 0
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g == w {
			continue
		}
		if diffs++; diffs > 20 {
			t.Fatalf("more than 20 lines differ from %s", goldenExperiments)
		}
		t.Errorf("line %d:\n got: %q\nwant: %q", i+1, g, w)
	}
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, golden file has %d", len(gotLines), len(wantLines))
	}
}

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	got := <-out
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return got
}
