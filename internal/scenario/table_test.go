package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("sample", StrCol("sched"), FloatCol("load"), FloatCol("turnaround"), IntCol("jobs"))
	t.Add("FCFS", 0.8, 1.25, 2000)
	t.Add("MAXIT", 0.8, 1.0041875, 2000)
	t.Add("a,b", 0.95, 0.5, 1)
	return t
}

func TestTableCSVBytes(t *testing.T) {
	dir := t.TempDir()
	tbl := sampleTable()
	if err := tbl.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "sample.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// The byte contract: header + rows, floats in 'g'/10 form, fields
	// with commas quoted per RFC 4180, \n line endings.
	want := "sched,load,turnaround,jobs\n" +
		"FCFS,0.8,1.25,2000\n" +
		"MAXIT,0.8,1.0041875,2000\n" +
		"\"a,b\",0.95,0.5,1\n"
	if string(got) != want {
		t.Errorf("CSV bytes:\n%q\nwant\n%q", got, want)
	}
}

func TestTableEmptyWritesHeader(t *testing.T) {
	dir := t.TempDir()
	tbl := NewTable("empty", StrCol("x"))
	if err := tbl.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "empty.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "x\n" {
		t.Errorf("empty table bytes %q, want header only", got)
	}
}

func TestTableAddTypeChecks(t *testing.T) {
	tbl := NewTable("x", FloatCol("f"))
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("arity", func() { tbl.Add(1.0, 2.0) })
	expectPanic("kind", func() { tbl.Add("not a float") })
	expectPanic("int-for-float", func() { tbl.Add(1) })
}

func TestTableText(t *testing.T) {
	out := sampleTable().Text()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "sched") || !strings.Contains(lines[0], "turnaround") {
		t.Errorf("header line %q", lines[0])
	}
	// Numeric columns right-align: every line's last character is
	// non-space, and the float column's decimal points line up.
	for _, l := range lines {
		if strings.HasSuffix(l, " ") {
			t.Errorf("trailing space in %q", l)
		}
	}
}

// TestWriteFileAtomic pins the temp-file-and-rename contract: a
// successful write leaves exactly the final CSV, no .tmp residue, and
// overwriting an existing file goes through the same atomic path.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	tbl := NewTable("atomic", StrCol("k"), FloatCol("v"))
	tbl.Add("a", 1.5)
	for i := 0; i < 2; i++ { // second pass overwrites
		if err := tbl.WriteFile(dir); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "atomic.csv" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("dir holds %v, want exactly atomic.csv", names)
	}
}
