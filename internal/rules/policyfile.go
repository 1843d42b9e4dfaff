package rules

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Migration policies are configuration, like the rule files: the pl_* format
// mirrors Figure 3/4's rl_* format. A condition is written
//
//	script(param) OP threshold        e.g.  loadAvg.sh(1) > 2
//	script OP threshold               e.g.  numProcs.sh > 150
//
// and a policy file reads
//
//	pl_name: policy3
//	pl_desc: load plus communication awareness
//	pl_migrate: true
//	pl_trigger: loadAvg.sh(1) > 2
//	pl_trigger: numProcs.sh > 150
//	pl_source: netFlow.sh(max) <= 5
//	pl_dest: loadAvg.sh(1) < 1
//	pl_dest: numProcs.sh < 100
//	pl_dest: netFlow.sh(max) <= 3
//
// Triggers are any-of; source preconditions and destination conditions are
// all-of (see MigrationPolicy). The registry places onto the first host that
// meets them. Any other pl_ key is ignored.

// ParseCondition parses one "script(param) OP threshold" condition.
func ParseCondition(s string) (Condition, error) {
	var opIdx int
	var op Op
	// Longest operators first so "<=" is not read as "<".
	for _, cand := range []Op{OpLessEqual, OpGreaterEqual, OpLess, OpGreater} {
		if i := strings.Index(s, string(cand)); i >= 0 {
			opIdx, op = i, cand
			break
		}
	}
	if op == "" {
		return Condition{}, fmt.Errorf("rules: condition %q has no comparison operator", s)
	}
	left := strings.TrimSpace(s[:opIdx])
	right := strings.TrimSpace(s[opIdx+len(op):])
	threshold, err := strconv.ParseFloat(right, 64)
	if err != nil {
		return Condition{}, fmt.Errorf("rules: condition %q threshold: %w", s, err)
	}
	cond := Condition{Op: op, Threshold: threshold}
	if open := strings.IndexByte(left, '('); open >= 0 {
		if !strings.HasSuffix(left, ")") {
			return Condition{}, fmt.Errorf("rules: condition %q has unbalanced parentheses", s)
		}
		cond.Script = strings.TrimSpace(left[:open])
		cond.Param = strings.TrimSpace(left[open+1 : len(left)-1])
	} else {
		cond.Script = left
	}
	if cond.Script == "" {
		return Condition{}, fmt.Errorf("rules: condition %q has no script", s)
	}
	return cond, nil
}

// ParsePolicies reads migration policies in the pl_* format. A new pl_name
// line starts a new policy; '#' lines are comments.
func ParsePolicies(r io.Reader) ([]*MigrationPolicy, error) {
	var (
		out  []*MigrationPolicy
		cur  *MigrationPolicy
		line int
	)
	flush := func() error {
		if cur == nil {
			return nil
		}
		if cur.Name == "" {
			return fmt.Errorf("rules: policy without a name")
		}
		out = append(out, cur)
		cur = nil
		return nil
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, value, ok := strings.Cut(text, ":")
		if !ok {
			return nil, fmt.Errorf("rules: line %d: missing ':' in %q", line, text)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		if key == "pl_name" {
			if err := flush(); err != nil {
				return nil, err
			}
			cur = &MigrationPolicy{Name: value, Migrate: true}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("rules: line %d: %q before any pl_name", line, key)
		}
		var err error
		switch key {
		case "pl_desc":
			// Informational only.
		case "pl_migrate":
			cur.Migrate, err = strconv.ParseBool(value)
		case "pl_trigger":
			err = appendCond(&cur.Trigger, value)
		case "pl_source":
			err = appendCond(&cur.SourcePrecond, value)
		case "pl_dest":
			err = appendCond(&cur.Destination, value)
		default:
			if !strings.HasPrefix(key, "pl_") {
				err = fmt.Errorf("unknown key %q", key)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("rules: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParsePolicyFile reads a policy file from disk.
func ParsePolicyFile(path string) ([]*MigrationPolicy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParsePolicies(f)
}

func appendCond(dst *[]Condition, src string) error {
	cond, err := ParseCondition(src)
	if err != nil {
		return err
	}
	*dst = append(*dst, cond)
	return nil
}
