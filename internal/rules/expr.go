package rules

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// The complex-rule expression language of Figure 4:
//
//	( 40% * r4 + 30% * r1 + 30% * r3 ) & r2
//
// Operands are grades: a rule reference rN evaluates rule N, a number is a
// constant, and N% is N/100 (the weights of a weighted sum). '+', '-' and
// '*' are arithmetic over grades. '&' combines two sub-states by taking the
// minimum grade — both sides must be at least busy for the result to be busy
// (the paper: busy if "both ... are in busy or one of them is in busy and
// the other is in overloaded") — and '|' takes the maximum. '&' and '|'
// bind loosest.
//
// Grammar (recursive descent):
//
//	expr    := sum (('&' | '|') sum)*
//	sum     := product (('+' | '-') product)*
//	product := unary ('*' unary)*
//	unary   := NUMBER ['%'] | 'r' INT | '(' expr ')'
type exprNode struct {
	kind  exprKind
	op    byte // '&', '|', '+', '-', '*'
	num   float64
	rule  int
	left  *exprNode
	right *exprNode
}

type exprKind int

const (
	nodeNum exprKind = iota
	nodeRule
	nodeBinary
)

// eval computes the grade of the expression; env resolves rule references.
func (n *exprNode) eval(env func(int) (Grade, error)) (Grade, error) {
	switch n.kind {
	case nodeNum:
		return Grade(n.num), nil
	case nodeRule:
		return env(n.rule)
	case nodeBinary:
		l, err := n.left.eval(env)
		if err != nil {
			return 0, err
		}
		r, err := n.right.eval(env)
		if err != nil {
			return 0, err
		}
		switch n.op {
		case '&':
			return min(l, r), nil
		case '|':
			return max(l, r), nil
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		}
	}
	return 0, fmt.Errorf("rules: corrupt expression node")
}

type exprParser struct {
	src string
	pos int
}

// parseExpr parses a complex-rule expression.
func parseExpr(src string) (*exprNode, error) {
	p := &exprParser{src: src}
	node, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("unexpected %q at offset %d", p.src[p.pos:], p.pos)
	}
	return node, nil
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *exprParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *exprParser) expr() (*exprNode, error) {
	left, err := p.sum()
	if err != nil {
		return nil, err
	}
	for {
		c := p.peek()
		if c != '&' && c != '|' {
			return left, nil
		}
		p.pos++
		right, err := p.sum()
		if err != nil {
			return nil, err
		}
		left = &exprNode{kind: nodeBinary, op: c, left: left, right: right}
	}
}

func (p *exprParser) sum() (*exprNode, error) {
	left, err := p.product()
	if err != nil {
		return nil, err
	}
	for {
		c := p.peek()
		if c != '+' && c != '-' {
			return left, nil
		}
		p.pos++
		right, err := p.product()
		if err != nil {
			return nil, err
		}
		left = &exprNode{kind: nodeBinary, op: c, left: left, right: right}
	}
}

func (p *exprParser) product() (*exprNode, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.peek() == '*' {
		p.pos++
		right, err := p.unary()
		if err != nil {
			return nil, err
		}
		left = &exprNode{kind: nodeBinary, op: '*', left: left, right: right}
	}
	return left, nil
}

func (p *exprParser) unary() (*exprNode, error) {
	switch c := p.peek(); {
	case c == '(':
		p.pos++
		node, err := p.expr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("missing ')' at offset %d", p.pos)
		}
		p.pos++
		return node, nil
	case c == 'r' || c == 'R':
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && isDigit(p.src[p.pos]) {
			p.pos++
		}
		if p.pos == start {
			return nil, fmt.Errorf("rule reference without number at offset %d", start)
		}
		n, err := strconv.Atoi(p.src[start:p.pos])
		if err != nil {
			return nil, err
		}
		return &exprNode{kind: nodeRule, rule: n}, nil
	case isDigit(c) || c == '.':
		start := p.pos
		for p.pos < len(p.src) && (isDigit(p.src[p.pos]) || p.src[p.pos] == '.') {
			p.pos++
		}
		v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %w", p.src[start:p.pos], err)
		}
		if p.pos < len(p.src) && p.src[p.pos] == '%' {
			p.pos++
			v /= 100
		}
		return &exprNode{kind: nodeNum, num: v}, nil
	case c == 0:
		return nil, fmt.Errorf("unexpected end of expression")
	default:
		return nil, fmt.Errorf("unexpected %q at offset %d", string(c), p.pos)
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// String reconstructs a canonical form of the expression, for logs.
func (n *exprNode) String() string {
	var b strings.Builder
	n.write(&b)
	return b.String()
}

func (n *exprNode) write(b *strings.Builder) {
	switch n.kind {
	case nodeNum:
		fmt.Fprintf(b, "%g", n.num)
	case nodeRule:
		fmt.Fprintf(b, "r%d", n.rule)
	case nodeBinary:
		b.WriteByte('(')
		n.left.write(b)
		fmt.Fprintf(b, " %c ", n.op)
		n.right.write(b)
		b.WriteByte(')')
	}
}
