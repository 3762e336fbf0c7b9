package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"privanalyzer/internal/api"
	"privanalyzer/internal/programs"
)

// paper holds the reference answers: the paper's Table III/V cells as the
// programs package records them in PhaseSpec. Answers are never compared
// against anything the code under test computes.
type paper struct {
	names []string                        // programs.Names() order
	specs map[string][]programs.PhaseSpec // program → rows in display order
	inv   map[string][]string             // program → syscall inventory (request input only)
	cells map[string]programs.VulnExpect  // "program/phase/attack" → paper verdict
}

func loadPaper() (*paper, error) {
	p := &paper{
		names: programs.Names(),
		specs: make(map[string][]programs.PhaseSpec),
		inv:   make(map[string][]string),
		cells: make(map[string]programs.VulnExpect),
	}
	for _, name := range p.names {
		prog, err := programs.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("paper cells: %w", err)
		}
		p.specs[name] = prog.Phases
		p.inv[name] = prog.Syscalls()
		for _, s := range prog.Phases {
			for a, want := range s.Vuln {
				p.cells[cellKey(name, s.Name, a+1)] = want
			}
		}
	}
	return p, nil
}

func cellKey(program, phase string, attack int) string {
	return fmt.Sprintf("%s/%s/%d", program, phase, attack)
}

// verdictOK reports whether a wire verdict satisfies the paper's cell: ✓
// wants vulnerable, ✗ wants safe, and ⏱ accepts safe or unknown.
func verdictOK(want programs.VulnExpect, got string) bool {
	switch want {
	case programs.Yes:
		return got == "vulnerable"
	case programs.No:
		return got == "safe"
	case programs.Timeout:
		return got == "safe" || got == "unknown"
	}
	return false
}

// checkAnalyze compares one program's analysis against the paper: every
// row present, counts exact, all four verdicts acceptable, no isolated
// faults. It returns one line per deviation.
func (p *paper) checkAnalyze(resp *api.AnalyzeResponse) []string {
	specs, ok := p.specs[resp.Program]
	if !ok {
		return []string{fmt.Sprintf("unknown program %q in response", resp.Program)}
	}
	var out []string
	if len(resp.Phases) != len(specs) {
		out = append(out, fmt.Sprintf("%s: %d phases, paper has %d", resp.Program, len(resp.Phases), len(specs)))
	}
	got := make(map[string]api.PhaseResult, len(resp.Phases))
	for _, ph := range resp.Phases {
		got[ph.Name] = ph
	}
	for _, s := range specs {
		ph, ok := got[s.Name]
		if !ok {
			out = append(out, fmt.Sprintf("%s %s: phase missing", resp.Program, s.Name))
			continue
		}
		if ph.Instructions != s.Instructions {
			out = append(out, fmt.Sprintf("%s %s: %d instructions, paper says %d",
				resp.Program, s.Name, ph.Instructions, s.Instructions))
		}
		if len(ph.Queries) != 4 {
			out = append(out, fmt.Sprintf("%s %s: %d verdicts, want 4", resp.Program, s.Name, len(ph.Queries)))
			continue
		}
		for i, q := range ph.Queries {
			if q.Attack != i+1 || !verdictOK(s.Vuln[i], q.Verdict) {
				out = append(out, fmt.Sprintf("%s %s attack%d: verdict %s, paper says %s",
					resp.Program, s.Name, q.Attack, q.Verdict, s.Vuln[i]))
			}
		}
	}
	for _, e := range resp.Errors {
		out = append(out, fmt.Sprintf("%s: isolated query fault: %s", resp.Program, e))
	}
	return out
}

// fingerprint is the determinism record of one evaluation: the dynamic
// instruction count, the ROSA state count, and a hash of every verdict.
// All three are exact; any difference between two runs of the same code is
// drift, not noise.
type fingerprint struct {
	Instructions int64  `json:"instructions"`
	States       int64  `json:"states"`
	VerdictHash  string `json:"verdict_hash"`
}

// programPrint fingerprints one program's analysis.
func programPrint(resp *api.AnalyzeResponse) fingerprint {
	var fp fingerprint
	h := sha256.New()
	fp.Instructions = resp.TotalInstructions
	for _, ph := range resp.Phases {
		for _, q := range ph.Queries {
			fp.States += int64(q.States)
			fmt.Fprintf(h, "%s/%s/%d=%s\n", resp.Program, ph.Name, q.Attack, q.Verdict)
		}
	}
	fp.VerdictHash = hex.EncodeToString(h.Sum(nil))[:16]
	return fp
}

// gridPrint fingerprints a whole evaluation, one response per program, in
// the paper's program order; it fails if a program is missing.
func (p *paper) gridPrint(resps map[string]*api.AnalyzeResponse) (fingerprint, error) {
	var fp fingerprint
	h := sha256.New()
	for _, name := range p.names {
		r, ok := resps[name]
		if !ok {
			return fp, fmt.Errorf("no analysis of %s", name)
		}
		pp := programPrint(r)
		fp.Instructions += pp.Instructions
		fp.States += pp.States
		fmt.Fprintln(h, pp.VerdictHash)
	}
	fp.VerdictHash = hex.EncodeToString(h.Sum(nil))[:16]
	return fp, nil
}

// errDrift marks a determinism failure.
var errDrift = errors.New("determinism drift")

// buildKey identifies the code under test: a hash of the named files, the
// built programs and the benchmark binary, which holds the in-process
// path. Go builds are reproducible, so the same source gives the same key.
func buildKey(files ...string) (string, error) {
	h := sha256.New()
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("build key: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// pinPrint compares fp against the fingerprint that earlier runs of the
// same build (key) recorded in dir, recording it when there is none. A
// mismatch is drift: the same code gave a different count or verdict. A
// different build starts a pin of its own, because a change may move the
// counts on purpose.
func pinPrint(dir, key string, fp fingerprint) error {
	path := filepath.Join(dir, "fingerprint-"+key+".json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		b, _ := json.Marshal(fp)
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, b, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	var prev fingerprint
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("fingerprint %s: %w", path, err)
	}
	if prev != fp {
		return fmt.Errorf("%w: build %s gave %+v, earlier runs of it %+v",
			errDrift, key, fp, prev)
	}
	return nil
}

// failures collects answer and drift failures, keeping the first few
// messages for the report. It is safe for concurrent use; an empty message
// is not a failure.
type failures struct {
	mu    sync.Mutex
	n     int
	drift bool
	msgs  []string
}

func (f *failures) add(drift bool, msg ...string) {
	if len(msg) == 0 || len(msg) == 1 && msg[0] == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	f.drift = f.drift || drift
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, strings.Join(msg, "; "))
	}
}

// merge adds g's failures to f.
func (f *failures) merge(g *failures) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n += g.n
	f.drift = f.drift || g.drift
	for _, m := range g.msgs {
		if len(f.msgs) < 20 {
			f.msgs = append(f.msgs, m)
		}
	}
}
