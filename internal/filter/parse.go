package filter

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/message"
)

// Parse builds a filter from a small subscription language mirroring the
// paper's examples:
//
//	service = "parking" && location in {"a", "b"} && cost < 3.0
//	street prefix "Rebeca" && spots >= 1 && covered = true
//
// Grammar (informal):
//
//	filter     := conjunct { "&&" conjunct } | "true"
//	conjunct   := ident op literal
//	            | ident "in" "{" literal { "," literal } "}"
//	            | ident "in" "[" literal "," literal "]"
//	            | ident "exists"
//	op         := "=" | "==" | "!=" | "<" | "<=" | ">" | ">=" |
//	              "prefix" | "suffix" | "contains"
//	literal    := string | int | float | "true" | "false"
//
// Unquoted integer literals parse as Int, literals with '.' or exponent as
// Float, true/false as Bool, and quoted text as String.
func Parse(src string) (Filter, error) {
	src = strings.TrimSpace(src)
	if src == "" || src == "true" {
		return MatchAll(), nil
	}
	p := &parser{src: src}
	var cs []Constraint
	for {
		c, err := p.constraint()
		if err != nil {
			return Filter{}, fmt.Errorf("filter: parse %q: %w", src, err)
		}
		cs = append(cs, c)
		p.skipSpace()
		if p.done() {
			break
		}
		if !p.consume("&&") && !p.consume("and") {
			return Filter{}, fmt.Errorf("filter: parse %q: expected '&&' at offset %d", src, p.pos)
		}
	}
	return New(cs...)
}

// MustParse is Parse that panics on error, for statically-known filters.
func MustParse(src string) Filter {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	src string
	pos int
}

var errParse = errors.New("syntax error")

func (p *parser) done() bool { return p.pos >= len(p.src) }

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *parser) consume(tok string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		r := rune(p.src[p.pos])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.' {
			p.pos++
		} else {
			break
		}
	}
	if p.pos == start {
		return "", fmt.Errorf("%w: expected identifier at offset %d", errParse, p.pos)
	}
	return p.src[start:p.pos], nil
}

func (p *parser) literal() (message.Value, error) {
	p.skipSpace()
	if p.done() {
		return message.Value{}, fmt.Errorf("%w: expected literal at end of input", errParse)
	}
	switch c := p.src[p.pos]; {
	case c == '"' || c == '\'':
		return p.stringLit(c)
	default:
		word, err := p.ident()
		if err != nil {
			return message.Value{}, err
		}
		switch word {
		case "true":
			return message.Bool(true), nil
		case "false":
			return message.Bool(false), nil
		}
		if i, err := strconv.ParseInt(word, 10, 64); err == nil {
			return message.Int(i), nil
		}
		if f, err := strconv.ParseFloat(word, 64); err == nil {
			return message.Float(f), nil
		}
		// Bare words parse as strings, which keeps location names like
		// {a, b, c} convenient.
		return message.String(strings.Clone(word)), nil
	}
}

func (p *parser) stringLit(quote byte) (message.Value, error) {
	p.pos++ // opening quote
	var b strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch c {
		case quote:
			p.pos++
			return message.String(b.String()), nil
		case '\\':
			if p.pos+1 >= len(p.src) {
				return message.Value{}, fmt.Errorf("%w: dangling escape", errParse)
			}
			p.pos++
			b.WriteByte(p.src[p.pos])
			p.pos++
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return message.Value{}, fmt.Errorf("%w: unterminated string", errParse)
}

func (p *parser) constraint() (Constraint, error) {
	attr, err := p.ident()
	if err != nil {
		return Constraint{}, err
	}
	// Interned, like a decoded notification's names: the filter neither
	// pins the source text nor holds a copy of its own, and the cover
	// signature's attribute compares find the same pointer on both sides.
	attr = message.InternName([]byte(attr))
	p.skipSpace()
	switch {
	case p.consume("=="), p.consume("="):
		v, err := p.literal()
		if err != nil {
			return Constraint{}, err
		}
		return EQ(attr, v), nil
	case p.consume("!="):
		v, err := p.literal()
		if err != nil {
			return Constraint{}, err
		}
		return NE(attr, v), nil
	case p.consume("<="):
		v, err := p.literal()
		if err != nil {
			return Constraint{}, err
		}
		return LE(attr, v), nil
	case p.consume(">="):
		v, err := p.literal()
		if err != nil {
			return Constraint{}, err
		}
		return GE(attr, v), nil
	case p.consume("<"):
		v, err := p.literal()
		if err != nil {
			return Constraint{}, err
		}
		return LT(attr, v), nil
	case p.consume(">"):
		v, err := p.literal()
		if err != nil {
			return Constraint{}, err
		}
		return GT(attr, v), nil
	case p.consume("prefix"):
		v, err := p.literal()
		if err != nil {
			return Constraint{}, err
		}
		return Prefix(attr, v.Str()), nil
	case p.consume("suffix"):
		v, err := p.literal()
		if err != nil {
			return Constraint{}, err
		}
		return Suffix(attr, v.Str()), nil
	case p.consume("contains"):
		v, err := p.literal()
		if err != nil {
			return Constraint{}, err
		}
		return Contains(attr, v.Str()), nil
	case p.consume("exists"):
		return Exists(attr), nil
	case p.consume("in"):
		return p.setOrRange(attr)
	default:
		return Constraint{}, fmt.Errorf("%w: expected operator after %q at offset %d", errParse, attr, p.pos)
	}
}

func (p *parser) setOrRange(attr string) (Constraint, error) {
	p.skipSpace()
	switch {
	case p.consume("{"):
		var vs []message.Value
		for {
			v, err := p.literal()
			if err != nil {
				return Constraint{}, err
			}
			vs = append(vs, v)
			p.skipSpace()
			if p.consume("}") {
				return In(attr, vs...), nil
			}
			if !p.consume(",") {
				return Constraint{}, fmt.Errorf("%w: expected ',' or '}' at offset %d", errParse, p.pos)
			}
		}
	case p.consume("["):
		lo, err := p.literal()
		if err != nil {
			return Constraint{}, err
		}
		if !p.consume(",") {
			return Constraint{}, fmt.Errorf("%w: expected ',' in range at offset %d", errParse, p.pos)
		}
		hi, err := p.literal()
		if err != nil {
			return Constraint{}, err
		}
		if !p.consume("]") {
			return Constraint{}, fmt.Errorf("%w: expected ']' at offset %d", errParse, p.pos)
		}
		return Range(attr, lo, hi), nil
	default:
		return Constraint{}, fmt.Errorf("%w: expected '{' or '[' after 'in' at offset %d", errParse, p.pos)
	}
}
