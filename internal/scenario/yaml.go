// A hand-rolled parser for the YAML subset scenario files use — block
// maps, block sequences, plain/quoted scalars, flow lists, comments —
// producing a line-numbered node tree. No external dependencies: the
// repo's go.mod stays empty.

package scenario

import (
	"fmt"
	"strings"
)

type nodeKind int

const (
	scalarNode nodeKind = iota + 1
	mapNode
	seqNode
)

// node is one parsed value with provenance.
type node struct {
	kind   nodeKind
	line   int
	scalar string

	// map fields (insertion order preserved for deterministic errors)
	keys    []string
	vals    map[string]*node
	keyLine map[string]int

	// sequence items
	items []*node
}

func newMapNode(line int) *node {
	return &node{kind: mapNode, line: line, vals: map[string]*node{}, keyLine: map[string]int{}}
}

type yline struct {
	indent int
	text   string
	line   int
}

type yparser struct {
	path  string
	lines []yline
	pos   int
}

func (p *yparser) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", p.path, line, fmt.Sprintf(format, args...))
}

func parseTree(path string, src []byte) (*node, error) {
	p := &yparser{path: path}
	for i, raw := range strings.Split(string(src), "\n") {
		lineNo := i + 1
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if indent < len(raw) && raw[indent] == '\t' {
			return nil, p.errf(lineNo, "tab in indentation")
		}
		text := stripComment(raw[indent:])
		text = strings.TrimRight(text, " \r")
		if text == "" || text == "---" {
			continue
		}
		p.lines = append(p.lines, yline{indent: indent, text: text, line: lineNo})
	}
	if len(p.lines) == 0 {
		return nil, fmt.Errorf("%s: empty document", path)
	}
	root, err := p.parseBlock(p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, p.errf(p.lines[p.pos].line, "unexpected content at indent %d", p.lines[p.pos].indent)
	}
	return root, nil
}

// stripComment removes a trailing "# ..." outside quotes. A '#' only
// starts a comment at the beginning of the content or after a space.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case '#':
			if i == 0 || s[i-1] == ' ' {
				return strings.TrimRight(s[:i], " ")
			}
		}
	}
	return s
}

func isSeqItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// parseBlock parses the map or sequence starting at the current line,
// whose members sit at exactly the given indent.
func (p *yparser) parseBlock(indent int) (*node, error) {
	if p.pos >= len(p.lines) {
		return nil, p.errf(0, "unexpected end of document")
	}
	if ln := p.lines[p.pos]; ln.indent != indent {
		return nil, p.errf(ln.line, "bad indentation %d (expected %d)", ln.indent, indent)
	}
	if isSeqItem(p.lines[p.pos].text) {
		return p.parseSeq(indent)
	}
	return p.parseMap(indent)
}

func (p *yparser) parseMap(indent int) (*node, error) {
	m := newMapNode(p.lines[p.pos].line)
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, p.errf(ln.line, "unexpected indentation %d (expected %d)", ln.indent, indent)
		}
		if isSeqItem(ln.text) {
			break
		}
		key, rest, err := splitKey(ln.text)
		if err != nil {
			return nil, p.errf(ln.line, "%v", err)
		}
		if _, dup := m.vals[key]; dup {
			return nil, p.errf(ln.line, "duplicate key %q", key)
		}
		p.pos++
		var val *node
		if rest == "" {
			// Block value: anything more-indented; else an empty scalar.
			if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
				val, err = p.parseBlock(p.lines[p.pos].indent)
				if err != nil {
					return nil, err
				}
			} else {
				val = &node{kind: scalarNode, line: ln.line}
			}
		} else {
			val, err = p.parseInline(rest, ln.line)
			if err != nil {
				return nil, err
			}
		}
		m.keys = append(m.keys, key)
		m.vals[key] = val
		m.keyLine[key] = ln.line
	}
	return m, nil
}

func (p *yparser) parseSeq(indent int) (*node, error) {
	s := &node{kind: seqNode, line: p.lines[p.pos].line}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent != indent || !isSeqItem(ln.text) {
			if ln.indent > indent {
				return nil, p.errf(ln.line, "unexpected indentation %d (expected %d)", ln.indent, indent)
			}
			break
		}
		p.pos++
		if ln.text == "-" {
			// Item body on the following more-indented lines.
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				s.items = append(s.items, &node{kind: scalarNode, line: ln.line})
				continue
			}
			item, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			s.items = append(s.items, item)
			continue
		}
		rest := strings.TrimLeft(ln.text[1:], " ")
		childIndent := indent + (len(ln.text) - len(rest))
		if _, _, err := splitKey(rest); err == nil {
			// "- key: ..." — first entry of the item's map; re-queue it at
			// the key's own column so parseMap sees one coherent block.
			p.lines = append(p.lines[:p.pos], append([]yline{{indent: childIndent, text: rest, line: ln.line}}, p.lines[p.pos:]...)...)
			item, err := p.parseMap(childIndent)
			if err != nil {
				return nil, err
			}
			s.items = append(s.items, item)
			continue
		}
		item, err := p.parseInline(rest, ln.line)
		if err != nil {
			return nil, err
		}
		s.items = append(s.items, item)
	}
	return s, nil
}

// splitKey splits "key: rest" / "key:"; errors when the text is not a
// mapping entry.
func splitKey(text string) (key, rest string, err error) {
	var quote byte
	for i := 0; i < len(text); i++ {
		c := text[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case ':':
			if i+1 == len(text) {
				return strings.TrimSpace(text[:i]), "", nil
			}
			if text[i+1] == ' ' {
				return strings.TrimSpace(text[:i]), strings.TrimSpace(text[i+2:]), nil
			}
		}
	}
	return "", "", fmt.Errorf("not a key: value pair: %q", text)
}

// parseInline parses a scalar or flow list appearing after "key: " or
// "- ".
func (p *yparser) parseInline(s string, line int) (*node, error) {
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, p.errf(line, "unterminated flow list %q", s)
		}
		seq := &node{kind: seqNode, line: line}
		body := strings.TrimSpace(s[1 : len(s)-1])
		if body == "" {
			return seq, nil
		}
		for _, part := range splitFlow(body) {
			item, err := p.parseScalar(strings.TrimSpace(part), line)
			if err != nil {
				return nil, err
			}
			seq.items = append(seq.items, item)
		}
		return seq, nil
	}
	return p.parseScalar(s, line)
}

// splitFlow splits a flow-list body on top-level commas.
func splitFlow(s string) []string {
	var out []string
	var quote byte
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case ',':
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func (p *yparser) parseScalar(s string, line int) (*node, error) {
	if len(s) >= 2 && (s[0] == '"' || s[0] == '\'') {
		if s[len(s)-1] != s[0] {
			return nil, p.errf(line, "unterminated quoted string %s", s)
		}
		body := s[1 : len(s)-1]
		if s[0] == '"' {
			var err error
			if body, err = unescapeDouble(body); err != nil {
				return nil, p.errf(line, "%v in %s", err, s)
			}
		} else {
			body = strings.ReplaceAll(body, "''", "'")
		}
		return &node{kind: scalarNode, line: line, scalar: body}, nil
	}
	if s == "~" || s == "null" {
		return &node{kind: scalarNode, line: line}, nil
	}
	return &node{kind: scalarNode, line: line, scalar: s}, nil
}

func unescapeDouble(s string) (string, error) {
	if !strings.Contains(s, "\\") {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("dangling escape")
		}
		switch s[i] {
		case '"', '\\', '/':
			b.WriteByte(s[i])
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		default:
			return "", fmt.Errorf("unsupported escape \\%c", s[i])
		}
	}
	return b.String(), nil
}
