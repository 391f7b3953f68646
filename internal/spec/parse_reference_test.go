package spec

// The parser as it stood before the one-pass rewrite, preserved
// verbatim (only renamed) as a test oracle: Parse must agree with it
// on every input — accept or reject, the error text with its line
// number, the Print output and the canonical fingerprint. Do not
// "improve" this file — its value is that it does not change.

import (
	"fmt"
	"strings"

	"rtm/internal/core"
	"rtm/internal/fault"
	"rtm/internal/pipeline"
)

// Parse compiles a specification text into a validated model.
func refParse(text string) (*Spec, error) {
	sp := &Spec{Model: core.NewModel()}
	var transforms []transform
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		lineNo := i + 1
		line := refStripComment(lines[i])
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "system":
			if len(fields) != 2 {
				return nil, errf(lineNo, "usage: system <name>")
			}
			sp.Name = fields[1]
		case "element":
			if len(fields) != 4 || fields[2] != "weight" {
				return nil, errf(lineNo, "usage: element <name> weight <int>")
			}
			var w int
			if _, err := fmt.Sscanf(fields[3], "%d", &w); err != nil || w < 0 {
				return nil, errf(lineNo, "bad weight %q", fields[3])
			}
			sp.Model.Comm.AddElement(fields[1], w)
		case "path":
			if len(fields) != 4 || fields[2] != "->" {
				return nil, errf(lineNo, "usage: path <from> -> <to>")
			}
			for _, e := range []string{fields[1], fields[3]} {
				if !sp.Model.Comm.G.HasNode(e) {
					return nil, errf(lineNo, "unknown element %q (declare it first)", e)
				}
			}
			sp.Model.Comm.AddPath(fields[1], fields[3])
		case "periodic", "sporadic":
			c, consumed, err := refParseConstraint(fields[0], lines, i)
			if err != nil {
				return nil, err
			}
			sp.Model.AddConstraint(c)
			i += consumed
		case "pipeline":
			if len(fields) != 4 || fields[2] != "stages" {
				return nil, errf(lineNo, "usage: pipeline <elem> stages <int>")
			}
			var n int
			if _, err := fmt.Sscanf(fields[3], "%d", &n); err != nil || n < 1 {
				return nil, errf(lineNo, "bad stage count %q", fields[3])
			}
			transforms = append(transforms, transform{kind: "pipeline", elem: fields[1], n: n, line: lineNo})
		case "replicate":
			if len(fields) != 4 || fields[2] != "copies" {
				return nil, errf(lineNo, "usage: replicate <elem> copies <int>")
			}
			var n int
			if _, err := fmt.Sscanf(fields[3], "%d", &n); err != nil || n < 2 {
				return nil, errf(lineNo, "bad copy count %q (need ≥ 2)", fields[3])
			}
			transforms = append(transforms, transform{kind: "replicate", elem: fields[1], n: n, line: lineNo})
		default:
			return nil, errf(lineNo, "unknown directive %q", fields[0])
		}
	}
	if err := sp.Model.Validate(); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	for _, tr := range transforms {
		var err error
		switch tr.kind {
		case "pipeline":
			sp.Model, err = pipeline.Decompose(sp.Model, tr.elem, tr.n)
		case "replicate":
			sp.Model, err = fault.Replicate(sp.Model, tr.elem, tr.n, 1)
		}
		if err != nil {
			return nil, errf(tr.line, "%s %s: %v", tr.kind, tr.elem, err)
		}
	}
	if len(transforms) > 0 {
		if err := sp.Model.Validate(); err != nil {
			return nil, fmt.Errorf("spec: after transforms: %w", err)
		}
	}
	return sp, nil
}

// stripComment removes a trailing comment. A '#' starts a comment
// only at the beginning of a line or after whitespace, so element
// names containing '#' (pipeline stages like "f#0") survive.
func refStripComment(line string) string {
	for i := 0; i < len(line); i++ {
		if line[i] == '#' && (i == 0 || line[i-1] == ' ' || line[i-1] == '\t') {
			line = line[:i]
			break
		}
	}
	return strings.TrimSpace(line)
}

// parseConstraint parses a constraint starting at lines[start]; the
// body may be inline ("{ ... }" on one line) or span lines until a
// closing "}". It returns the constraint and how many extra lines
// were consumed.
func refParseConstraint(kind string, lines []string, start int) (*core.Constraint, int, error) {
	lineNo := start + 1
	head := refStripComment(lines[start])
	open := strings.IndexByte(head, '{')
	if open < 0 {
		return nil, 0, errf(lineNo, "constraint missing '{'")
	}
	fields := strings.Fields(head[:open])
	sepWord := "period"
	k := core.Periodic
	if kind == "sporadic" {
		sepWord = "separation"
		k = core.Asynchronous
	}
	if len(fields) != 6 || fields[2] != sepWord || fields[4] != "deadline" {
		return nil, 0, errf(lineNo, "usage: %s <name> %s <int> deadline <int> { ... }", kind, sepWord)
	}
	var p, d int
	if _, err := fmt.Sscanf(fields[3], "%d", &p); err != nil {
		return nil, 0, errf(lineNo, "bad %s %q", sepWord, fields[3])
	}
	if _, err := fmt.Sscanf(fields[5], "%d", &d); err != nil {
		return nil, 0, errf(lineNo, "bad deadline %q", fields[5])
	}

	// collect the body text up to the matching '}'
	body := head[open+1:]
	consumed := 0
	for !strings.Contains(body, "}") {
		next := start + 1 + consumed
		if next >= len(lines) {
			return nil, 0, errf(lineNo, "constraint body not closed")
		}
		body += " " + refStripComment(lines[next])
		consumed++
	}
	body = body[:strings.IndexByte(body, '}')]

	task, err := refParseTask(body, lineNo)
	if err != nil {
		return nil, 0, err
	}
	return &core.Constraint{
		Name: fields[1], Task: task, Period: p, Deadline: d, Kind: k,
	}, consumed, nil
}

// parseTask parses a ';'-separated list of chains into a task graph.
func refParseTask(body string, lineNo int) (*core.TaskGraph, error) {
	t := core.NewTaskGraph()
	addStep := func(item string) (string, error) {
		node, elem := item, item
		if idx := strings.IndexByte(item, ':'); idx >= 0 {
			node, elem = item[:idx], item[idx+1:]
			if node == "" || elem == "" {
				return "", errf(lineNo, "bad step %q", item)
			}
		}
		t.AddStep(node, elem)
		return node, nil
	}
	for _, clause := range strings.Split(body, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, "->")
		prev := ""
		for _, part := range parts {
			part = strings.TrimSpace(part)
			if part == "" {
				return nil, errf(lineNo, "empty step in %q", clause)
			}
			node, err := addStep(part)
			if err != nil {
				return nil, err
			}
			if prev != "" {
				t.AddPrec(prev, node)
			}
			prev = node
		}
	}
	if t.G.NumNodes() == 0 {
		return nil, errf(lineNo, "empty task graph")
	}
	return t, nil
}
