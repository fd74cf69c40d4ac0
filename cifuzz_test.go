package repro

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)

// TestCIFuzzesEveryTarget holds the CI fuzz job to the tree: every native
// fuzz target in this module must be on the job's "package target" list
// in .github/workflows/ci.yml, and every listed one must exist. A target
// left off the list only ever runs its seed corpus.
func TestCIFuzzesEveryTarget(t *testing.T) {
	listed := ciFuzzList(t, ".github/workflows/ci.yml")
	found := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module; `go test ./...` here never reaches it
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			found[filepath.ToSlash(filepath.Dir(path))+" "+string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no fuzz targets found in the tree")
	}
	for target := range found {
		if !listed[target] {
			t.Errorf("fuzz target %q is missing from the CI fuzz job's list", target)
		}
	}
	for target := range listed {
		if !found[target] {
			t.Errorf("the CI fuzz job lists %q, which is not in the tree", target)
		}
	}
}

// ciFuzzList reads the "package target" lines of the fuzz job's heredoc.
func ciFuzzList(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]bool{}
	inJob, inList := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case line == "  fuzz:":
			inJob = true
		case inJob && strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") && trimmed != "":
			inJob = false // the next job
		case inJob && strings.HasSuffix(trimmed, "<<'EOF'"):
			inList = true
		case inList && trimmed == "EOF":
			inList = false
		case inList:
			if fields := strings.Fields(trimmed); len(fields) == 2 {
				listed[fields[0]+" "+fields[1]] = true
			} else {
				t.Errorf("malformed fuzz list line %q", trimmed)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(listed) == 0 {
		t.Fatalf("no fuzz list found in %s", path)
	}
	return listed
}
