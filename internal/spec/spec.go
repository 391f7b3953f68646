// Package spec implements a small requirements-specification language
// for the graph-based model — the role CONSORT's front end played for
// the paper's methodology. A specification names the functional
// elements with their computation times, the communication paths, and
// the timing constraints with their task graphs; it compiles to a
// validated core.Model and pretty-prints back losslessly.
//
// Grammar (line-oriented; '#' at line start or after whitespace
// starts a comment — element names may contain interior '#'):
//
//	system <name>
//	element <name> weight <int>
//	path <from> -> <to>
//	periodic <name> period <int> deadline <int> { <task> }
//	sporadic <name> separation <int> deadline <int> { <task> }
//	pipeline <elem> stages <int>
//	replicate <elem> copies <int>
//
// The `pipeline` and `replicate` directives are applied as model
// transformations after the whole specification parses: pipeline
// splits an element into equal-time sub-functions (software
// pipelining) and replicate applies modular redundancy with a
// majority voter.
//
// where <task> is a ';'-separated list of items, each either a chain
// "a -> b -> c" (steps named after their elements) or a single step.
// Repeated executions of one element use "node:elem" naming:
//
//	periodic P period 10 deadline 10 { first:f -> second:f }
package spec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"rtm/internal/core"
	"rtm/internal/fault"
	"rtm/internal/pipeline"
)

// ParseError carries the offending line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("spec: line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Spec is a parsed specification.
type Spec struct {
	Name  string
	Model *core.Model
}

// transform is a deferred model transformation directive.
type transform struct {
	kind string // "pipeline" or "replicate"
	elem string
	n    int
	line int
}

// Parse compiles a specification text into a validated model.
//
// It is one pass over the text: lines, fields, integers and task steps
// are located in place as substrings of text, so a spec whose
// constraint bodies each fit on one line is parsed without building
// any string.
func Parse(text string) (*Spec, error) {
	sp := &Spec{Model: core.NewModel()}
	var transforms []transform
	ls := lines{text: text}
	for ls.next() {
		lineNo := ls.no
		line := stripComment(ls.line)
		if line == "" {
			continue
		}
		var f fields
		f.split(line)
		switch f.at(0) {
		case "system":
			if f.n != 2 {
				return nil, errf(lineNo, "usage: system <name>")
			}
			sp.Name = f.at(1)
		case "element":
			if f.n != 4 || f.at(2) != "weight" {
				return nil, errf(lineNo, "usage: element <name> weight <int>")
			}
			w, ok := scanInt(f.at(3))
			if !ok || w < 0 {
				return nil, errf(lineNo, "bad weight %q", f.at(3))
			}
			sp.Model.Comm.AddElement(f.at(1), w)
		case "path":
			if f.n != 4 || f.at(2) != "->" {
				return nil, errf(lineNo, "usage: path <from> -> <to>")
			}
			for _, e := range [2]string{f.at(1), f.at(3)} {
				if !sp.Model.Comm.G.HasNode(e) {
					return nil, errf(lineNo, "unknown element %q (declare it first)", e)
				}
			}
			sp.Model.Comm.AddPath(f.at(1), f.at(3))
		case "periodic", "sporadic":
			c, err := parseConstraint(f.at(0), line, lineNo, &ls)
			if err != nil {
				return nil, err
			}
			sp.Model.AddConstraint(c)
		case "pipeline":
			if f.n != 4 || f.at(2) != "stages" {
				return nil, errf(lineNo, "usage: pipeline <elem> stages <int>")
			}
			n, ok := scanInt(f.at(3))
			if !ok || n < 1 {
				return nil, errf(lineNo, "bad stage count %q", f.at(3))
			}
			transforms = append(transforms, transform{kind: "pipeline", elem: f.at(1), n: n, line: lineNo})
		case "replicate":
			if f.n != 4 || f.at(2) != "copies" {
				return nil, errf(lineNo, "usage: replicate <elem> copies <int>")
			}
			n, ok := scanInt(f.at(3))
			if !ok || n < 2 {
				return nil, errf(lineNo, "bad copy count %q (need ≥ 2)", f.at(3))
			}
			transforms = append(transforms, transform{kind: "replicate", elem: f.at(1), n: n, line: lineNo})
		default:
			return nil, errf(lineNo, "unknown directive %q", f.at(0))
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

// lines walks a text line by line, splitting on '\n' exactly as
// strings.Split does: a text ending in '\n' has a last, empty line.
type lines struct {
	text string
	pos  int  // offset of the next line
	done bool // the last line has been returned
	no   int  // 1-based number of the current line
	line string
}

func (ls *lines) next() bool {
	if ls.done {
		return false
	}
	rest := ls.text[ls.pos:]
	if j := strings.IndexByte(rest, '\n'); j >= 0 {
		ls.line, ls.pos = rest[:j], ls.pos+j+1
	} else {
		ls.line, ls.done = rest, true
	}
	ls.no++
	return true
}

// fields splits a line around runs of white space exactly as
// strings.Fields does, keeping the first len(s) fields in place and
// counting them all: no directive has more than six.
type fields struct {
	s [6]string
	n int
}

func (f *fields) split(line string) {
	f.n = 0
	start := -1 // offset of the current field, or -1 between fields
	for i := 0; i < len(line); {
		c, w := line[i], 1
		space := asciiSpace[c] != 0
		if c >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRuneInString(line[i:])
			space = unicode.IsSpace(r)
		}
		if !space && start < 0 {
			start = i
		} else if space && start >= 0 {
			f.add(line[start:i])
			start = -1
		}
		i += w
	}
	if start >= 0 {
		f.add(line[start:])
	}
}

func (f *fields) add(field string) {
	if f.n < len(f.s) {
		f.s[f.n] = field
	}
	f.n++
}

// at returns field i, or "" past the fields kept.
func (f *fields) at(i int) string {
	if i >= f.n || i >= len(f.s) {
		return ""
	}
	return f.s[i]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts; a byte at
// or above utf8.RuneSelf starts a multi-byte rune (an invalid byte is
// one non-space rune, as strings.Fields reads it).
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// scanInt reads an integer the way fmt.Sscanf's %d verb does: an
// optional '+' or '-', then at least one decimal digit; the bytes
// after the digits are not looked at, so "5abc" reads as 5. A value
// outside int's range fails.
func scanInt(s string) (int, bool) {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	j := i
	for j < len(s) && '0' <= s[j] && s[j] <= '9' {
		j++
	}
	if j == i {
		return 0, false
	}
	n, err := strconv.Atoi(s[:j])
	return n, err == nil
}

// stripComment removes a trailing comment. A '#' starts a comment
// only at the beginning of a line or after whitespace, so element
// names containing '#' (pipeline stages like "f#0") survive.
func stripComment(line string) string {
	for i := 0; i < len(line); i++ {
		if line[i] == '#' && (i == 0 || line[i-1] == ' ' || line[i-1] == '\t') {
			line = line[:i]
			break
		}
	}
	return strings.TrimSpace(line)
}

// parseConstraint parses the constraint whose (comment-stripped) head
// line is head. The body may be inline ("{ ... }" on one line) or run
// over the following lines of ls up to the first '}'; anything after
// that '}' on its line is ignored.
func parseConstraint(kind, head string, lineNo int, ls *lines) (*core.Constraint, error) {
	open := strings.IndexByte(head, '{')
	if open < 0 {
		return nil, errf(lineNo, "constraint missing '{'")
	}
	var f fields
	f.split(head[:open])
	sepWord := "period"
	k := core.Periodic
	if kind == "sporadic" {
		sepWord = "separation"
		k = core.Asynchronous
	}
	if f.n != 6 || f.at(2) != sepWord || f.at(4) != "deadline" {
		return nil, errf(lineNo, "usage: %s <name> %s <int> deadline <int> { ... }", kind, sepWord)
	}
	p, ok := scanInt(f.at(3))
	if !ok {
		return nil, errf(lineNo, "bad %s %q", sepWord, f.at(3))
	}
	d, ok := scanInt(f.at(5))
	if !ok {
		return nil, errf(lineNo, "bad deadline %q", f.at(5))
	}

	body := head[open+1:]
	if end := strings.IndexByte(body, '}'); end >= 0 {
		body = body[:end]
	} else {
		var err error
		if body, err = joinBody(body, lineNo, ls); err != nil {
			return nil, err
		}
	}
	task, err := parseTask(body, lineNo)
	if err != nil {
		return nil, err
	}
	return &core.Constraint{
		Name: f.at(1), Task: task, Period: p, Deadline: d, Kind: k,
	}, nil
}

// joinBody reads the rest of a body that runs over several lines: each
// further line of ls, comment stripped and trimmed, joined to first by
// one space, up to the first '}'. The joined body is built once.
func joinBody(first string, lineNo int, ls *lines) (string, error) {
	var b strings.Builder
	b.WriteString(first)
	for ls.next() {
		seg := stripComment(ls.line)
		b.WriteByte(' ')
		if end := strings.IndexByte(seg, '}'); end >= 0 {
			b.WriteString(seg[:end])
			return b.String(), nil
		}
		b.WriteString(seg)
	}
	return "", errf(lineNo, "constraint body not closed")
}

// parseTask parses a ';'-separated list of chains into a task graph.
func parseTask(body string, lineNo int) (*core.TaskGraph, error) {
	t := core.NewTaskGraph()
	for rest, more := body, true; more; {
		var clause string
		clause, rest, more = strings.Cut(rest, ";")
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		prev := ""
		for steps, chained := clause, true; chained; {
			var item string
			item, steps, chained = strings.Cut(steps, "->")
			item = strings.TrimSpace(item)
			if item == "" {
				return nil, errf(lineNo, "empty step in %q", clause)
			}
			node, elem := item, item
			if idx := strings.IndexByte(item, ':'); idx >= 0 {
				node, elem = item[:idx], item[idx+1:]
				if node == "" || elem == "" {
					return nil, errf(lineNo, "bad step %q", item)
				}
			}
			t.AddStep(node, elem)
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

// Print renders a model back into specification syntax. Parsing the
// output reproduces an equivalent model (round-trip property).
func Print(name string, m *core.Model) string {
	var b strings.Builder
	if name != "" {
		fmt.Fprintf(&b, "system %s\n", name)
	}
	for _, e := range m.Comm.Elements() {
		fmt.Fprintf(&b, "element %s weight %d\n", e, m.Comm.WeightOf(e))
	}
	edges := m.Comm.G.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "path %s -> %s\n", e.From, e.To)
	}
	for _, c := range m.Constraints {
		kind, sepWord := "periodic", "period"
		if c.Kind == core.Asynchronous {
			kind, sepWord = "sporadic", "separation"
		}
		fmt.Fprintf(&b, "%s %s %s %d deadline %d { %s }\n",
			kind, c.Name, sepWord, c.Period, c.Deadline, renderTask(c.Task))
	}
	return b.String()
}

// renderTask serializes a task graph as chains covering every edge
// plus isolated nodes.
func renderTask(t *core.TaskGraph) string {
	var clauses []string
	covered := map[string]bool{}
	step := func(node string) string {
		if node == t.ElementOf(node) {
			return node
		}
		return node + ":" + t.ElementOf(node)
	}
	for _, e := range t.G.Edges() {
		clauses = append(clauses, step(e.From)+" -> "+step(e.To))
		covered[e.From] = true
		covered[e.To] = true
	}
	for _, n := range t.Nodes() {
		if !covered[n] {
			clauses = append(clauses, step(n))
		}
	}
	return strings.Join(clauses, "; ")
}
