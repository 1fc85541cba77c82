package analysis

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// EscapeConfig describes one `go tool compile -m=2` invocation.
// AnalyzeModule and the fixture kit each assemble it from their own
// package metadata.
type EscapeConfig struct {
	// Dir is the working directory for the compile invocation; file paths
	// in GoFiles are resolved against it.
	Dir string
	// ImportPath is the package's import path (compile -p).
	ImportPath string
	// GoFiles are the package's compiled Go files, spelled exactly as
	// they were handed to the parser, so the compiler's position output
	// matches the FileSet.
	GoFiles []string
	// ImportCfg is the path of an importcfg file mapping every import to
	// its export data ("packagefile path=file" lines). Empty for
	// import-free sources (the fixture case).
	ImportCfg string
}

// escapeLineRE matches the compiler's position-prefixed -m output.
var escapeLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// CollectEscapes runs the compiler's escape analysis over one package and
// returns the heap verdicts ("x escapes to heap", "moved to heap: x").
// It invokes `go tool compile` directly rather than `go build
// -gcflags=-m` because the build cache swallows -m output on cache hits —
// the analyzer would silently pass on every unchanged package.
//
// The returned slice is non-nil on success even when empty, which is how
// AllocProve distinguishes "compiler proved it clean" from "nobody ran
// the compiler".
func CollectEscapes(cfg EscapeConfig) ([]Escape, error) {
	if len(cfg.GoFiles) == 0 {
		return []Escape{}, nil
	}
	args := []string{"tool", "compile", "-p", cfg.ImportPath, "-m=2", "-o", os.DevNull}
	if cfg.ImportCfg != "" {
		args = append(args, "-importcfg", cfg.ImportCfg)
	}
	args = append(args, cfg.GoFiles...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go tool compile -m=2 %s: %v\n%s", cfg.ImportPath, err, out)
	}
	return parseEscapes(string(out)), nil
}

// parseEscapes extracts the heap verdicts from -m=2 output, dropping
// inlining chatter, parameter-leak reports, and the indented flow
// explanations that follow each verdict.
func parseEscapes(out string) []Escape {
	escapes := []Escape{}
	seen := map[Escape]bool{}
	for _, line := range strings.Split(out, "\n") {
		m := escapeLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if strings.HasPrefix(msg, " ") || strings.HasPrefix(msg, "\t") {
			continue // "flow:" / "from ..." explanation detail
		}
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		e := Escape{File: m[1], Line: line, Col: col, Msg: strings.TrimSuffix(msg, ":")}
		if !seen[e] {
			seen[e] = true
			escapes = append(escapes, e)
		}
	}
	sort.Slice(escapes, func(i, j int) bool {
		a, b := escapes[i], escapes[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Msg < b.Msg
	})
	return escapes
}

// WriteImportCfg writes an importcfg file for CollectEscapes from an
// import-path → export-data-file map, returning the file's path. The
// caller owns the temp file.
func WriteImportCfg(dir string, packageFile map[string]string) (string, error) {
	var b strings.Builder
	b.WriteString("# escape-analysis import config\n")
	paths := make([]string, 0, len(packageFile))
	for k := range packageFile {
		paths = append(paths, k)
	}
	sort.Strings(paths)
	for _, k := range paths {
		fmt.Fprintf(&b, "packagefile %s=%s\n", k, packageFile[k])
	}
	f, err := os.CreateTemp(dir, "rbpc-importcfg-*")
	if err != nil {
		return "", err
	}
	if _, err := f.WriteString(b.String()); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}
