package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/faircache/lfoc/internal/harness"
)

// writeBaseline writes rows as an lfoc-bench -json file and returns its
// path.
func writeBaseline(t *testing.T, name, goVersion string, rows []harness.Table2Row) string {
	t.Helper()
	buf, err := json.Marshal(baselineFile{GoVersion: goVersion, ItersPerSize: 50, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffTable2(t *testing.T) {
	base := []harness.Table2Row{
		{Apps: 4, LFOCms: 0.002, KPartms: 0.05, LFOCAllocs: 18, KPartAllocs: 223},
		{Apps: 5, LFOCms: 0.002, KPartms: 0.10, LFOCAllocs: 20, KPartAllocs: 299},
		{Apps: 6, LFOCms: 0.004, KPartms: 0.10, LFOCAllocs: 29, KPartAllocs: 356},
	}
	// edit returns a copy of the baseline rows with f applied to each.
	edit := func(f func(r *harness.Table2Row)) []harness.Table2Row {
		rows := append([]harness.Table2Row(nil), base...)
		for i := range rows {
			f(&rows[i])
		}
		return rows
	}
	cases := []struct {
		name      string
		goVersion string
		curr      []harness.Table2Row
		failures  int
	}{
		{"clean", "go1.24.5", edit(func(r *harness.Table2Row) {
			r.LFOCms *= 1.2
			r.KPartms *= 0.9
			r.LFOCAllocs += 0.5
		}), 0},
		{"one slow size is absorbed by the median", "go1.24.0", edit(func(r *harness.Table2Row) {
			if r.Apps == 5 {
				r.LFOCms *= 3
			}
		}), 0},
		{"LFOC median slower", "go1.24.0", edit(func(r *harness.Table2Row) { r.LFOCms *= 1.3 }), 1},
		{"KPart median slower", "go1.24.0", edit(func(r *harness.Table2Row) { r.KPartms *= 1.3 }), 1},
		{"alloc growth", "go1.24.0", edit(func(r *harness.Table2Row) {
			if r.Apps == 6 {
				r.LFOCAllocs++
				r.KPartAllocs++
			}
		}), 2},
		{"missing row", "go1.24.0", base[:2], 1},
		{"other Go minor skips allocs", "go1.23.4", edit(func(r *harness.Table2Row) { r.KPartAllocs += 10 }), 0},
	}
	basePath := writeBaseline(t, "base.json", "go1.24.0", base)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			currPath := writeBaseline(t, "curr.json", c.goVersion, c.curr)
			failures, err := diffTable2(basePath, currPath, 1.25, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if failures != c.failures {
				t.Errorf("%d failures, want %d", failures, c.failures)
			}
		})
	}
}
