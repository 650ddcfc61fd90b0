"""Reference parser for differential tests of mbraid.cli.parse_expression.

This is the expression parser that mbraid.cli ran before a term folded its
runs of numbers, commuting symbols and generators into one monomial:
``_tokenize``, ``_syntax_error``, ``_size``, ``_check_size``, ``_Parser`` and
``parse_expression`` are kept verbatim.  Every factor is an NCPoly, and every
'*' forms the full NCPoly product after its size check.
"""

from __future__ import annotations

from fractions import Fraction

from mbraid.cli import (COMMUTING, MAX_DEPTH, MAX_EXPONENT, MAX_TERMS,
                        MAX_WORD, NONCOMMUTING)
from mbraid.ncalgebra import NCPoly
from mbraid.scalars import ONE, UnknownSymbolError, sym


def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                j += 2
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise _syntax_error(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _syntax_error(msg: str, offset: int) -> SyntaxError:
    err = SyntaxError(f"{msg} at offset {offset}")
    err.offset = offset
    return err


def _size(p: NCPoly) -> tuple:
    num = den = longest = 0
    for word, c in p.coeffs.items():
        num += len(c.num.terms)
        den += len(c.den.terms)
        if len(word) > longest:
            longest = len(word)
    return num, den, longest


def _check_size(a: NCPoly, b: NCPoly, offset: int, divide: bool = False) -> None:
    (na, da, wa), (nb, db, wb) = _size(a), _size(b)
    if divide:  # a / c multiplies numerators by den(c) and denominators by num(c)
        nb, db = db, nb
    if max(na * nb, da * db) > MAX_TERMS:
        raise _syntax_error(f"expression grows beyond {MAX_TERMS} terms", offset)
    if wa + wb > MAX_WORD:
        raise _syntax_error(f"word grows beyond {MAX_WORD} letters", offset)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open '(' and unary '-' levels

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise _syntax_error(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def expr(self) -> NCPoly:
        out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> NCPoly:
        out = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.take()
            rhs = self.factor()
            _check_size(out, rhs, offset, op == "/")
            if op == "*":
                out = out * rhs
                continue
            if any(word for word in rhs.coeffs):
                raise _syntax_error("divisor must be scalar", offset)
            out = out.scale(ONE / rhs.coefficient(()))
        return out

    def factor(self) -> NCPoly:
        kind, text, offset = self.peek()
        if kind in ("-", "("):
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise _syntax_error(f"nesting deeper than {MAX_DEPTH} levels", offset)
        if kind == "-":
            self.take()
            out = -self.factor()
            self.depth -= 1
            return out
        if kind == "num":
            self.take()
            try:
                out = NCPoly.unit(Fraction(text))
            except ZeroDivisionError:
                raise _syntax_error("zero denominator", offset) from None
            except ValueError:  # beyond the interpreter's int digit limit
                raise _syntax_error("numeric literal too long", offset) from None
        elif kind == "name":
            self.take()
            if text in COMMUTING:
                out = NCPoly.unit(sym(text))
            elif text in NONCOMMUTING:
                out = NCPoly.gen(text)
            else:
                raise UnknownSymbolError(f"unknown symbol {text!r} at offset {offset}")
        elif kind == "(":
            self.take()
            out = self.expr()
            self.take(")")
            self.depth -= 1
        else:
            raise _syntax_error(f"expected a factor, found {text or 'end'!r}", offset)
        while self.peek()[0] == "^":
            self.take()
            kind, text, offset = self.take("num")
            if "/" in text:
                raise _syntax_error("exponent must be a nonnegative integer", offset)
            digits = text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise _syntax_error(f"exponent above {MAX_EXPONENT}", offset)
            power, base = NCPoly.unit(), out
            for _ in range(int(digits)):
                _check_size(power, base, offset)
                power = power * base
            out = power
        return out


def parse_expression(text: str) -> NCPoly:
    parser = _Parser(text)
    out = parser.expr()
    kind, tok_text, offset = parser.peek()
    if kind != "end":
        raise _syntax_error(f"unexpected {tok_text!r}", offset)
    return out
