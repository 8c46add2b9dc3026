"""Expression grammar, pretty-printing, and JSON forms for elements.

The input grammar covers generator names a, as, b, bs, the equator
sphere shorthands A, B, Bs (desugared to bs*b, a*bs, b*as), rational
literals p/r, the constant 1, and the operators * + - ^ with
parentheses.  As documented supersets it also accepts: juxtaposition
as multiplication, decimal literals, the imaginary unit `i`, and
`sqrt(n)` for integer n >= 1 whose squarefree part matches the scalar
field.  Pretty-printed output always re-parses to the same element.

Canonical JSON form of an element: a list of term objects sorted by
(aExp, bExp, bStarExp).  Exact coefficients use coeffNum/coeffDen with
optional coeffImNum/Den, coeffSurdNum/Den, coeffSurdImNum/Den and a
`surd` tag; float coefficients use coeffRe/coeffIm.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .qhopf import Algebra, AlgebraElement, _mono_str
from .scalars import FloatScalar, squarefree_split


class QExprError(ValueError):
    """Parse error carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = set("0123456789")


def _scan_exponent(text: str, j: int) -> int:
    """Length of an e-exponent tail starting at j, or j when absent."""
    n = len(text)
    if j < n and text[j] in "eE":
        k = j + 1
        if k < n and text[k] in "+-":
            k += 1
        if k < n and text[k] in _DIGITS:
            while k < n and text[k] in _DIGITS:
                k += 1
            return k
    return j


def tokenize(text: str):
    """Yield (kind, value, line, col) tuples; kind in
    NAME NUMBER OP LP RP END."""
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
                j = _scan_exponent(text, j)
                toks.append(("NUMBER", text[i:j], line, start_col))
            elif j < n and text[j] in "eE" and _scan_exponent(text, j) > j:
                j = _scan_exponent(text, j)
                toks.append(("NUMBER", text[i:j], line, start_col))
            elif j < n and text[j] == "/" and j + 1 < n and text[j + 1] in _DIGITS:
                k = j + 1
                while k < n and text[k] in _DIGITS:
                    k += 1
                toks.append(("NUMBER", text[i:k], line, start_col))
                j = k
            else:
                toks.append(("NUMBER", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _NAME_CHARS:
            j = i
            while j < n and (text[j] in _NAME_CHARS or text[j] in _DIGITS):
                j += 1
            toks.append(("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "*+-^":
            toks.append(("OP", ch, line, start_col))
        elif ch == "(":
            toks.append(("LP", ch, line, start_col))
        elif ch == ")":
            toks.append(("RP", ch, line, start_col))
        else:
            raise QExprError("unexpected character %r" % ch, line, start_col)
        i += 1
        col += 1
    toks.append(("END", "", line, col))
    return toks


class _Parser:
    def __init__(self, alg: Algebra, text: str):
        self.alg = alg
        self.toks = tokenize(text)
        self.pos = 0
        F = alg.field
        self.names = {
            "a": alg.a,
            "as": alg.a_star,
            "b": alg.b,
            "bs": alg.b_star,
            "A": alg.b_star * alg.b,
            "B": alg.a * alg.b_star,
            "Bs": alg.b * alg.a_star,
            "i": alg.scalar_element(F.i_unit),
        }

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def error(self, msg: str, tok=None):
        tok = tok or self.peek()
        raise QExprError(msg, tok[2], tok[3])

    def parse(self) -> AlgebraElement:
        out = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            self.error("trailing input %r" % tok[1])
        return out

    def expr(self) -> AlgebraElement:
        node = self.term()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "OP" and val in "+-":
                self.advance()
                rhs = self.term()
                node = node + rhs if val == "+" else node - rhs
            else:
                return node

    def term(self) -> AlgebraElement:
        node = self.factor()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "OP" and val == "*":
                self.advance()
                node = node * self.factor()
            elif kind in ("NAME", "NUMBER", "LP"):
                # juxtaposition
                node = node * self.factor()
            else:
                return node

    def factor(self) -> AlgebraElement:
        kind, val, _, _ = self.peek()
        if kind == "OP" and val == "-":
            self.advance()
            return -self.factor()
        node = self.atom()
        kind, val, _, _ = self.peek()
        if kind == "OP" and val == "^":
            self.advance()
            tok = self.peek()
            if tok[0] != "NUMBER" or not tok[1].isdigit():
                self.error("exponent must be a non-negative integer")
            self.advance()
            node = node ** int(tok[1])
        return node

    def atom(self) -> AlgebraElement:
        tok = self.advance()
        kind, val, _, _ = tok
        if kind == "NUMBER":
            try:
                frac = Fraction(val)
            except (ValueError, ZeroDivisionError):
                self.error("bad numeric literal %r" % val, tok)
            return self.alg.scalar_element(self.alg.field.from_rational(frac))
        if kind == "NAME":
            if val == "sqrt":
                return self._sqrt_atom(tok)
            node = self.names.get(val)
            if node is None:
                self.error("unknown name %r" % val, tok)
            return node
        if kind == "LP":
            node = self.expr()
            tok = self.advance()
            if tok[0] != "RP":
                self.error("expected ')'", tok)
            return node
        self.error("expected a value, got %r" % (val or "end of input"), tok)

    def _sqrt_atom(self, head) -> AlgebraElement:
        tok = self.advance()
        if tok[0] != "LP":
            self.error("sqrt needs a parenthesized integer", tok)
        arg = self.advance()
        if arg[0] != "NUMBER" or not arg[1].isdigit():
            self.error("sqrt argument must be a positive integer", arg)
        close = self.advance()
        if close[0] != "RP":
            self.error("expected ')'", close)
        n = int(arg[1])
        if n < 1:
            self.error("sqrt argument must be a positive integer", arg)
        d, m = squarefree_split(n)
        F = self.alg.field
        if m == 1:
            return self.alg.scalar_element(F.from_rational(d))
        if F.mode == "float":
            root = FloatScalar(F, F.ctx.sqrt(F.ctx.mpf(m)) * d)
            return self.alg.scalar_element(root)
        if m != F.m:
            self.error("sqrt(%d) does not live in this scalar field (surd %d)"
                       % (n, F.m), head)
        return self.alg.scalar_element(F.from_parts(0, 0, d, 0))


def parse_expression(alg: Algebra, text: str) -> AlgebraElement:
    return _Parser(alg, text).parse()


def _frac_str(f: Fraction) -> str:
    return str(f)


def _coeff_comps(c, field):
    """Nonzero (Fraction, tag) components of an exact scalar."""
    comps = []
    if c.re:
        comps.append((c.re, ""))
    if c.im:
        comps.append((c.im, "i"))
    if c.sre:
        comps.append((c.sre, "sqrt(%d)" % field.m))
    if c.sim:
        comps.append((c.sim, "i*sqrt(%d)" % field.m))
    return comps


def _comp_str(frac: Fraction, tag: str) -> str:
    if not tag:
        return _frac_str(frac)
    if frac == 1:
        return tag
    if frac == -1:
        return "-" + tag
    return "%s*%s" % (_frac_str(frac), tag)


def _coeff_str(c, field):
    """Render a scalar; returns (text, is_composite, is_plain_one,
    is_plain_minus_one)."""
    if field.mode == "float":
        re = float(c.val.real)
        im = float(c.val.imag)
        if im == 0.0:
            return repr(re), False, re == 1.0, re == -1.0
        if re == 0.0:
            return _comp_str(Fraction(1), "i") if im == 1.0 else (
                "%r*i" % im), False, False, False
        return "(%r+%r*i)" % (re, im) if im >= 0 else (
            "(%r-%r*i)" % (re, -im)), True, False, False
    comps = _coeff_comps(c, field)
    if len(comps) == 1:
        frac, tag = comps[0]
        if not tag:
            return _frac_str(frac), False, frac == 1, frac == -1
        return _comp_str(frac, tag), False, False, False
    bits = []
    for idx, (frac, tag) in enumerate(comps):
        s = _comp_str(frac, tag)
        if idx == 0:
            bits.append(s)
        elif s.startswith("-"):
            bits.append("-" + s[1:])
        else:
            bits.append("+" + s)
    return "(" + "".join(bits) + ")", True, False, False


def element_to_text(x: AlgebraElement) -> str:
    """Canonical, re-parseable rendering; terms in basis order."""
    if x.is_zero():
        return "0"
    field = x.alg.field
    terms = []
    for mono in sorted(x.terms):
        c = x.terms[mono]
        mono_txt = _mono_str(mono)
        ctext, composite, is_one, is_minus_one = _coeff_str(c, field)
        if mono.is_unit():
            terms.append(ctext)
        elif is_one:
            terms.append(mono_txt)
        elif is_minus_one:
            terms.append("-" + mono_txt)
        else:
            terms.append("%s*%s" % (ctext, mono_txt))
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def element_to_obj(x: AlgebraElement) -> list:
    """Canonical JSON-ready list of term dicts.

    Exact-mode serialization is lossless.  Float-mode coefficients are
    emitted as doubles, so round trips through JSON are exact only up
    to double precision regardless of the working precision.
    """
    field = x.alg.field
    out = []
    for mono in sorted(x.terms):
        c = x.terms[mono]
        term = {"aExp": mono.a_exp, "bExp": mono.b_exp, "bStarExp": mono.bs_exp}
        if field.mode == "float":
            term["coeffRe"] = float(c.val.real)
            term["coeffIm"] = float(c.val.imag)
        else:
            term["coeffNum"] = c.re.numerator
            term["coeffDen"] = c.re.denominator
            if c.im:
                term["coeffImNum"] = c.im.numerator
                term["coeffImDen"] = c.im.denominator
            if c.sre:
                term["coeffSurdNum"] = c.sre.numerator
                term["coeffSurdDen"] = c.sre.denominator
            if c.sim:
                term["coeffSurdImNum"] = c.sim.numerator
                term["coeffSurdImDen"] = c.sim.denominator
            if c.sre or c.sim:
                term["surd"] = field.m
        out.append(term)
    return out


def obj_to_element(alg: Algebra, obj) -> AlgebraElement:
    if not isinstance(obj, list):
        raise ValueError("element JSON must be a list of term objects")
    F = alg.field
    out = alg.scalar_element(F.zero)
    for term in obj:
        try:
            k = int(term["aExp"])
            l = int(term["bExp"])
            m = int(term["bStarExp"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("bad term object %r" % (term,)) from exc
        if "coeffRe" in term or "coeffIm" in term:
            if F.mode != "float":
                raise ValueError("float coefficients in exact-mode element")
            c = F.from_parts(Fraction(float(term.get("coeffRe", 0.0))),
                             Fraction(float(term.get("coeffIm", 0.0))))
        else:
            surd = term.get("surd")
            if surd is not None and F.mode == "exact" and surd != F.m:
                raise ValueError("term surd %r does not match field surd %r"
                                 % (surd, F.m))
            re = Fraction(term.get("coeffNum", 0), term.get("coeffDen", 1))
            im = Fraction(term.get("coeffImNum", 0), term.get("coeffImDen", 1))
            sre = Fraction(term.get("coeffSurdNum", 0), term.get("coeffSurdDen", 1))
            sim = Fraction(term.get("coeffSurdImNum", 0), term.get("coeffSurdImDen", 1))
            if F.mode == "float":
                if sre or sim:
                    raise ValueError("surd coefficients need exact mode")
                c = F.from_parts(re, im)
            else:
                c = F.from_parts(re, im, sre, sim)
        out = out + alg.monomial(k, l, m, c)
    return out


def scalar_to_obj(c, field) -> dict:
    if field.mode == "float":
        return {"re": float(c.val.real), "im": float(c.val.imag)}
    obj = {"num": c.re.numerator, "den": c.re.denominator}
    if c.im:
        obj["imNum"] = c.im.numerator
        obj["imDen"] = c.im.denominator
    if c.sre:
        obj["surdNum"] = c.sre.numerator
        obj["surdDen"] = c.sre.denominator
    if c.sim:
        obj["surdImNum"] = c.sim.numerator
        obj["surdImDen"] = c.sim.denominator
    if c.sre or c.sim:
        obj["surd"] = field.m
    return obj


def canonical_json(obj) -> str:
    """The one JSON formatting used for every artifact."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
