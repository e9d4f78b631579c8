package prof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := (&Flags{cpu: &cpu, mem: &mem}).Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		if info, err := os.Stat(p); err != nil || info.Size() == 0 {
			t.Fatalf("profile %s: %v, %v", p, info, err)
		}
	}
}

func TestStartWithoutFlagsWritesNothing(t *testing.T) {
	empty := ""
	stop, err := (&Flags{cpu: &empty, mem: &empty}).Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

func TestStartReportsUnwritableCPUProfile(t *testing.T) {
	bad, empty := filepath.Join(t.TempDir(), "missing", "cpu.out"), ""
	if _, err := (&Flags{cpu: &bad, mem: &empty}).Start(); err == nil {
		t.Fatal("Start succeeded with an unwritable -cpuprofile path")
	}
}
