package lfoc_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	lfoc "github.com/faircache/lfoc"
)

// docFiles returns every committed markdown file the link checker and
// drift tests cover.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "DESIGN.md", "PAPER.md", "ROADMAP.md"}
	extra, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, extra...)
	for _, f := range files {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("doc file missing: %v", err)
		}
	}
	return files
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// headingAnchor reproduces the GitHub slug for a markdown heading:
// lowercase, spaces to hyphens, punctuation dropped.
func headingAnchor(heading string) string {
	h := strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

func fileAnchors(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[string]bool{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		anchors[headingAnchor(strings.TrimLeft(line, "# "))] = true
	}
	return anchors
}

// TestMarkdownLinksResolve walks every relative link in the committed
// docs and fails on targets that do not exist, including heading
// anchors.
func TestMarkdownLinksResolve(t *testing.T) {
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, anchor, _ := strings.Cut(target, "#")
			resolved := file
			if path != "" {
				resolved = filepath.Join(filepath.Dir(file), path)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", file, target, err)
					continue
				}
			}
			if anchor != "" && strings.HasSuffix(resolved, ".md") {
				if !fileAnchors(t, resolved)[anchor] {
					t.Errorf("%s: link %q: no heading with anchor %q in %s",
						file, target, anchor, resolved)
				}
			}
		}
	}
}

// mdPath matches a markdown file name or relative path, such as
// DESIGN.md or docs/checkpoint-resume.md.
var mdPath = regexp.MustCompile(`[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// TestGoCommentDocPathsResolve checks every markdown path named in a Go
// comment anywhere in the repository: it must exist next to the Go file
// or at the repository root, so no comment points at a document that
// was renamed, deleted or never written.
func TestGoCommentDocPathsResolve(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				for _, name := range mdPath.FindAllString(c.Text, -1) {
					checked++
					if _, err := os.Stat(filepath.Join(filepath.Dir(path), name)); err == nil {
						continue
					}
					if _, err := os.Stat(name); err == nil {
						continue
					}
					t.Errorf("%s: comment names %s, which exists neither next to the file nor at the repository root",
						fset.Position(c.Pos()), name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no markdown path found in any Go comment; the scan is broken")
	}
}

// flagDef matches flag definitions on the global flag package and on
// a `fs`-named FlagSet (cmd/lfoc-vet parses into one for testability).
var flagDef = regexp.MustCompile(`\b(?:flag|fs)\.(?:String|Bool|Int|Int64|Uint64|Float64|Duration)\("([^"]+)"`)

func definedFlags(t *testing.T, mainPath string) []string {
	t.Helper()
	data, err := os.ReadFile(mainPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range flagDef.FindAllStringSubmatch(string(data), -1) {
		names = append(names, m[1])
	}
	if len(names) == 0 {
		t.Fatalf("no flag definitions found in %s", mainPath)
	}
	return names
}

// readmeSection extracts the README text between a heading and the next
// heading of the same or higher level.
func readmeSection(t *testing.T, readme, heading string) string {
	t.Helper()
	idx := strings.Index(readme, heading)
	if idx < 0 {
		t.Fatalf("README section %q missing", heading)
	}
	rest := readme[idx+len(heading):]
	if end := strings.Index(rest, "\n#"); end >= 0 {
		rest = rest[:end]
	}
	return rest
}

// TestREADMEFlagTablesCurrent pins the README CLI flag tables to the
// flag definitions in the CLI sources: every defined flag must have a
// table row, and every table row must correspond to a defined flag.
func TestREADMEFlagTablesCurrent(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	rowName := regexp.MustCompile("(?m)^\\| `-([^`]+)` \\|")

	cases := []struct {
		heading string
		main    string
	}{
		{"### lfoc-sim flags", filepath.Join("cmd", "lfoc-sim", "main.go")},
		{"### lfoc-bench flags", filepath.Join("cmd", "lfoc-bench", "main.go")},
		{"### lfoc-vet flags", filepath.Join("cmd", "lfoc-vet", "main.go")},
	}
	for _, c := range cases {
		section := readmeSection(t, readme, c.heading)
		rows := map[string]bool{}
		for _, m := range rowName.FindAllStringSubmatch(section, -1) {
			rows[m[1]] = true
		}
		defined := definedFlags(t, c.main)
		for _, name := range defined {
			if !rows[name] {
				t.Errorf("%s: flag -%s defined in %s but missing from the README table",
					c.heading, name, c.main)
			}
			delete(rows, name)
		}
		for name := range rows {
			t.Errorf("%s: README table lists -%s but %s does not define it",
				c.heading, name, c.main)
		}
	}
}

// TestExampleSpecsRun smoke-tests every committed spec under
// examples/specs/: it must parse, validate, generate a non-empty
// arrival stream, and run through the open-system simulator.
func TestExampleSpecsRun(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "specs", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("expected at least the 4 cookbook specs under examples/specs, found %d", len(paths))
	}
	cfg := lfoc.DefaultExperimentConfig()
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			spec, err := lfoc.LoadWorkloadSpec(path)
			if err != nil {
				t.Fatal(err)
			}
			scn, err := spec.Scenario(cfg.Scale)
			if err != nil {
				t.Fatal(err)
			}
			if len(scn.Arrivals()) == 0 {
				t.Fatalf("%s generated no arrivals", path)
			}
			pol, _, err := cfg.NewDynamicPolicy("lfoc")
			if err != nil {
				t.Fatal(err)
			}
			res, err := lfoc.RunOpen(cfg.SimConfig(), scn, pol)
			if err != nil {
				t.Fatal(err)
			}
			if res.Departed == 0 {
				t.Fatalf("%s: no application departed", path)
			}
		})
	}
}
