package lint_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// buildVettool compiles cmd/drtmr-vet into dir and returns the binary path
// plus the repo root.
func buildVettool(t *testing.T, dir string) (tool, root string) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go command unavailable: %v", err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool = filepath.Join(dir, "drtmr-vet")
	if runtime.GOOS == "windows" {
		tool += ".exe"
	}
	build := exec.Command("go", "build", "-o", tool, "./cmd/drtmr-vet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building drtmr-vet: %v\n%s", err, out)
	}
	return tool, root
}

// TestVettoolProtocol builds cmd/drtmr-vet and drives it through the real
// `go vet -vettool` protocol, the way `make lint` and check.sh do. Over the
// commit-pipeline packages the suite must come back clean: every repo finding
// is either fixed or carries a reasoned //drtmr:allow. Over a module seeded
// with a lockorder and an enumswitch violation go vet must fail and name
// both.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vettool and re-vets packages; skipped in -short")
	}
	tool, root := buildVettool(t, t.TempDir())

	vet := exec.Command("go", "vet", "-vettool="+tool,
		"./internal/txn/", "./internal/rdma/", "./internal/cluster/", "./internal/sim/")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=drtmr-vet found unsuppressed diagnostics: %v\n%s", err, out)
	}

	mod := t.TempDir()
	if err := os.MkdirAll(filepath.Join(mod, "internal", "txn"), 0o777); err != nil {
		t.Fatal(err)
	}
	for rel, content := range map[string]string{
		"go.mod":                 "module drtmr\n\ngo 1.22\n",
		"internal/txn/seeded.go": seededBuggy,
	} {
		if err := os.WriteFile(filepath.Join(mod, rel), []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	vet = exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = mod
	dirty, err := vet.CombinedOutput()
	if _, failed := err.(*exec.ExitError); !failed {
		t.Fatalf("go vet over the seeded module: err %v, want a failing exit status\n%s", err, dirty)
	}
	for _, want := range []string{
		"seeded.go:20:2: lockorder: ", "seeded.go:25:2: enumswitch: ",
	} {
		if !strings.Contains(string(dirty), want) {
			t.Errorf("go vet over the seeded module does not report %q:\n%s", want, dirty)
		}
	}

	// The protocol probes cmd/go uses must answer in the expected shapes.
	out, err := exec.Command(tool, "-flags").Output()
	if err != nil {
		t.Fatalf("drtmr-vet -flags: %v", err)
	}
	var flags []struct{ Name string }
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("drtmr-vet -flags: %v: %s", err, out)
	}
	var names []string
	for _, f := range flags {
		names = append(names, f.Name)
	}
	if want := []string{"htmregion", "virtualtime", "abortattr", "lockorder", "enumswitch"}; !slices.Equal(names, want) {
		t.Errorf("-flags lists analyzers %v, want %v", names, want)
	}
	vout, err := exec.Command(tool, "-V=full").Output()
	if err != nil {
		t.Fatalf("drtmr-vet -V=full: %v", err)
	}
	if !strings.Contains(string(vout), " version ") {
		t.Errorf("-V=full output %q does not follow the tool ID protocol", vout)
	}
	_ = os.Remove(tool)
}

// seededBuggy is a module-"drtmr" package carrying a mutex held across a
// channel send (lockorder) and a non-exhaustive enum switch (enumswitch).
const seededBuggy = `package txn

import "sync"

type Mode uint8

const (
	ModeOff Mode = iota
	ModeOn
	ModeAuto
)

type box struct {
	mu sync.Mutex
	ch chan int
}

func (b *box) heldAcrossSend() {
	b.mu.Lock()
	b.ch <- 1
	b.mu.Unlock()
}

func pick(m Mode) int {
	switch m {
	case ModeOff:
		return 0
	}
	return 1
}
`
