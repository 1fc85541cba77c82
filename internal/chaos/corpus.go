package chaos

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rbpc/internal/engine"
	"rbpc/internal/failure"
)

// Corpus format: a short header of "key value" lines fixing the world and
// engine configuration, a "schedule" marker, then the schedule in
// failure.Schedule's line format. Blank lines and '#' comments are
// ignored throughout. The file is self-contained: cmd/rbpc-chaos -replay
// re-runs it byte-for-byte deterministically.

// WriteCase writes c in the corpus format, byte-stably: re-saving an
// unchanged case must produce an identical file.
//
//rbpc:deterministic
func WriteCase(w io.Writer, c Case) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# rbpc-chaos case")
	fmt.Fprintf(bw, "nodes %d\n", c.Nodes)
	fmt.Fprintf(bw, "topo-seed %d\n", c.TopoSeed)
	fmt.Fprintf(bw, "sched-seed %d\n", c.Seed)
	fmt.Fprintf(bw, "max-down %d\n", c.MaxDown)
	fmt.Fprintf(bw, "fault %s\n", c.Fault)
	// Scheme keys are omitted for source-scheme cases so their files stay
	// byte-identical to the pre-scheme corpus format.
	if c.Scheme != engine.SchemeSource {
		fmt.Fprintf(bw, "scheme %s\n", c.Scheme)
	}
	if c.FloodFrozen {
		fmt.Fprintln(bw, "flood-frozen 1")
	}
	// Sharded-run keys are omitted for single-engine cases, and the
	// process-mode key for in-process ones, so their files stay
	// byte-identical to the earlier corpus formats.
	if c.Shards > 0 {
		fmt.Fprintf(bw, "shards %d\n", c.Shards)
		if c.Procs {
			fmt.Fprintln(bw, "procs 1")
		}
	}
	fmt.Fprintln(bw, "schedule")
	if err := bw.Flush(); err != nil {
		return err
	}
	return c.Schedule.Encode(w)
}

// ReadCase parses the corpus format.
//
//rbpc:deterministic
func ReadCase(r io.Reader) (Case, error) {
	sc := bufio.NewScanner(r)
	var c Case
	lineNo := 0
	inSchedule := false
	var sched strings.Builder
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if inSchedule {
			sched.WriteString(line)
			sched.WriteByte('\n')
			continue
		}
		fields := strings.Fields(line)
		key := fields[0]
		if key == "schedule" {
			inSchedule = true
			continue
		}
		if len(fields) != 2 {
			return Case{}, fmt.Errorf("chaos: corpus line %d: %q takes one value", lineNo, key)
		}
		// One fault vocabulary, one field. Files written while the
		// coordinator and the transport had enums of their own spell their
		// faults under "shard-fault" and "proc-fault" (and "none" under the
		// keys they did not use); those still load.
		if key == "fault" || key == "shard-fault" || key == "proc-fault" {
			f, err := engine.ParseFault(fields[1])
			if err != nil {
				return Case{}, fmt.Errorf("chaos: corpus line %d: %v", lineNo, err)
			}
			if f != engine.FaultNone {
				if c.Fault != engine.FaultNone && c.Fault != f {
					return Case{}, fmt.Errorf("chaos: corpus line %d: case injects both %v and %v", lineNo, c.Fault, f)
				}
				c.Fault = f
			}
			continue
		}
		if key == "scheme" {
			s, err := engine.ParseScheme(fields[1])
			if err != nil {
				return Case{}, fmt.Errorf("chaos: corpus line %d: %v", lineNo, err)
			}
			c.Scheme = s
			continue
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return Case{}, fmt.Errorf("chaos: corpus line %d: %s: %v", lineNo, key, err)
		}
		switch key {
		case "nodes":
			c.Nodes = int(n)
		case "topo-seed":
			c.TopoSeed = n
		case "sched-seed":
			c.Seed = n
		case "max-down":
			c.MaxDown = int(n)
		case "coalesce-us":
			// The engine's coalescing window is gone: a burst is one
			// transition. Files written while it existed still load.
		case "flood-frozen":
			c.FloodFrozen = n != 0
		case "shards":
			c.Shards = int(n)
		case "procs":
			c.Procs = n != 0
		default:
			return Case{}, fmt.Errorf("chaos: corpus line %d: unknown key %q", lineNo, key)
		}
	}
	if err := sc.Err(); err != nil {
		return Case{}, fmt.Errorf("chaos: %w", err)
	}
	if !inSchedule {
		return Case{}, fmt.Errorf("chaos: corpus has no schedule section")
	}
	if c.Nodes <= 0 {
		return Case{}, fmt.Errorf("chaos: corpus missing nodes")
	}
	s, err := failure.DecodeSchedule(strings.NewReader(sched.String()))
	if err != nil {
		return Case{}, err
	}
	c.Schedule = s
	return c, nil
}

// SaveCase writes c to path, creating parent directories as needed.
func SaveCase(path string, c Case) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCase(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCase reads the case at path.
func LoadCase(path string) (Case, error) {
	f, err := os.Open(path)
	if err != nil {
		return Case{}, err
	}
	defer f.Close()
	return ReadCase(f)
}
