package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteDirBundle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "obs")
	paths, err := testRegistry().WriteDir(dir, "fig5.")
	if err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	want := []string{
		"fig5.events.jsonl", "fig5.series.csv", "fig5.counters.csv",
		"fig5.hist.jsonl", "fig5.perf.csv", "fig5.trace.json",
	}
	if len(paths) != len(want) {
		t.Fatalf("WriteDir wrote %d files, want %d: %v", len(paths), len(want), paths)
	}
	for i, name := range want {
		if got := filepath.Base(paths[i]); got != name {
			t.Errorf("path %d = %s, want %s", i, got, name)
		}
		st, err := os.Stat(paths[i])
		if err != nil {
			t.Fatalf("stat %s: %v", paths[i], err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", paths[i])
		}
	}
}

func TestWriteDirNilRegistry(t *testing.T) {
	var r *Registry
	paths, err := r.WriteDir(t.TempDir(), "x.")
	if err != nil || paths != nil {
		t.Errorf("nil WriteDir = %v, %v; want nil, nil", paths, err)
	}
}

func TestFilePrefix(t *testing.T) {
	cases := map[string]string{
		"fig5":              "fig5.",
		"fig5/k1=0.5":       "fig5-k1-0.5.",
		"epoch 50ms (fast)": "epoch-50ms--fast-.",
		"already_safe-1.2":  "already_safe-1.2.",
	}
	for in, want := range cases {
		if got := FilePrefix(in); got != want {
			t.Errorf("FilePrefix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestProfileHelpersEmptyPathNoop(t *testing.T) {
	stop, err := StartCPUProfile("")
	if err != nil {
		t.Fatalf("StartCPUProfile(\"\"): %v", err)
	}
	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
	if err := WriteHeapProfile(""); err != nil {
		t.Errorf("WriteHeapProfile(\"\"): %v", err)
	}
}
