"""Finite-trace temporal formulas: syntax, templates, and evaluation.

Formulas are immutable trees over activity atoms with the operators
!, &, |, ->, <->, X (strong next), Xw (weak next), U, R, W, F, G.
Satisfaction is over finite traces: X requires a successor position,
U demands its right operand at some reachable position, and the empty
trace is handled by a structural valuation (`ev_empty`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Iterable

from .core import Activity, PositionIndex, TemplateKind, Trace, index_positions


class Formula:
    """Base class for formula nodes. Instances are immutable and hashable."""

    __slots__ = ()

    def children(self) -> tuple["Formula", ...]:
        return ()

    def __str__(self) -> str:
        return pretty(self)

    def __reduce__(self):
        # Rebuild through the constructor: restoring the hand-written slots
        # one by one would go through the frozen dataclass's __setattr__.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class TrueConst(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class FalseConst(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    __slots__ = ("activity",)
    activity: Activity


@dataclass(frozen=True)
class _Unary(Formula):
    __slots__ = ("arg",)
    arg: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.arg,)


@dataclass(frozen=True)
class _Binary(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class _Nary(Formula):
    __slots__ = ("args",)
    args: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if len(self.args) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two operands")

    def children(self) -> tuple[Formula, ...]:
        return self.args


# The operators add no fields to their arity's dataclass. Its generated
# __eq__ still requires the same class, and __repr__ names the subclass.

class Not(_Unary):
    __slots__ = ()


class And(_Nary):
    """N-ary conjunction; the operand tuple always has at least two entries."""

    __slots__ = ()


class Or(_Nary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class Next(_Unary):
    """Strong next: requires a successor position."""

    __slots__ = ()


class WeakNext(_Unary):
    """Weak next: vacuously true at the last position."""

    __slots__ = ()


class Until(_Binary):
    __slots__ = ()


class Release(_Binary):
    __slots__ = ()


class WeakUntil(_Binary):
    """left W right, equivalent to G(left) | (left U right)."""

    __slots__ = ()


class Eventually(_Unary):
    __slots__ = ()


class Globally(_Unary):
    __slots__ = ()


TRUE = TrueConst()
FALSE = FalseConst()


# --------------------------------------------------------------------------
# Parsing

class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; `offset` is the character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_RESERVED = {"X", "Xw", "F", "G", "U", "W", "R", "true", "false"}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<iff><->)
    | (?P<implies>->)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<and>&)
    | (?P<or>\|)
    | (?P<not>!)
    | (?P<quoted>"(?:[^"\\]|\\.)*")
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _unquote(tok: str, offset: int) -> str:
    body = tok[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body) or body[i + 1] not in '"\\':
                raise FormulaSyntaxError("bad escape in quoted label", offset + i + 1)
            out.append(body[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class _Parser:
    """Recursive descent over the operator precedence chain.

    Tightest to loosest: unary (!/X/Xw/F/G), then U/W/R (right
    associative), then &, |, -> and <-> (both right associative).
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.advance()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Formula:
        f = self.iff()
        kind, text, offset = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected trailing input {text!r}", offset)
        return f

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek()[0] == "iff":
            self.advance()
            return Iff(left, self.iff())
        return left

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "implies":
            self.advance()
            return Implies(left, self.implies())
        return left

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek()[0] == "or":
            self.advance()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.temporal()]
        while self.peek()[0] == "and":
            self.advance()
            parts.append(self.temporal())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def temporal(self) -> Formula:
        left = self.unary()
        kind, text, _ = self.peek()
        if kind == "ident" and text in ("U", "W", "R"):
            self.advance()
            right = self.temporal()
            if text == "U":
                return Until(left, right)
            if text == "W":
                return WeakUntil(left, right)
            return Release(left, right)
        return left

    def unary(self) -> Formula:
        kind, text, offset = self.peek()
        if kind == "not":
            self.advance()
            return Not(self.unary())
        if kind == "ident" and text in ("X", "Xw", "F", "G"):
            self.advance()
            arg = self.unary()
            if text == "X":
                return Next(arg)
            if text == "Xw":
                return WeakNext(arg)
            if text == "F":
                return Eventually(arg)
            return Globally(arg)
        return self.primary()

    def primary(self) -> Formula:
        kind, text, offset = self.advance()
        if kind == "lparen":
            f = self.iff()
            self.expect("rparen")
            return f
        if kind == "quoted":
            return Atom(Activity(_unquote(text, offset)))
        if kind == "ident":
            if text == "true":
                return TRUE
            if text == "false":
                return FALSE
            if text in _RESERVED:
                raise FormulaSyntaxError(
                    f"operator {text!r} found where an operand was expected", offset
                )
            return Atom(Activity(text))
        raise FormulaSyntaxError(f"unexpected token {text!r}", offset)


def parse_formula(text: str) -> Formula:
    """Parse formula text. Raises FormulaSyntaxError with a character offset."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Pretty printing (round-trips through parse_formula)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Binding strength, loosest first. Children at strictly weaker levels get
# parenthesized; right-associative binaries reuse their own level on the right.
_LEVEL_IFF = 0
_LEVEL_IMPLIES = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_TEMPORAL = 4
_LEVEL_UNARY = 5


def _atom_text(a: Activity) -> str:
    if _IDENT_RE.match(a.label) and a.label not in _RESERVED:
        return a.label
    escaped = a.label.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _pp(f: Formula, level: int) -> str:
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, FalseConst):
        return "false"
    if isinstance(f, Atom):
        return _atom_text(f.activity)
    if isinstance(f, Not):
        return "!" + _pp(f.arg, _LEVEL_UNARY)
    if isinstance(f, (Next, WeakNext, Eventually, Globally)):
        op = {Next: "X", WeakNext: "Xw", Eventually: "F", Globally: "G"}[type(f)]
        arg = _pp(f.arg, _LEVEL_UNARY)
        return f"{op}{arg}" if arg.startswith("(") else f"{op} {arg}"
    if isinstance(f, (Until, WeakUntil, Release)):
        op = {Until: "U", WeakUntil: "W", Release: "R"}[type(f)]
        text = f"{_pp(f.left, _LEVEL_UNARY)} {op} {_pp(f.right, _LEVEL_TEMPORAL)}"
        return f"({text})" if level > _LEVEL_TEMPORAL else text
    if isinstance(f, And):
        text = " & ".join(_pp(x, _LEVEL_TEMPORAL) for x in f.args)
        return f"({text})" if level > _LEVEL_AND else text
    if isinstance(f, Or):
        text = " | ".join(_pp(x, _LEVEL_AND) for x in f.args)
        return f"({text})" if level > _LEVEL_OR else text
    if isinstance(f, Implies):
        text = f"{_pp(f.left, _LEVEL_OR)} -> {_pp(f.right, _LEVEL_IMPLIES)}"
        return f"({text})" if level > _LEVEL_IMPLIES else text
    if isinstance(f, Iff):
        text = f"{_pp(f.left, _LEVEL_IMPLIES)} <-> {_pp(f.right, _LEVEL_IFF)}"
        return f"({text})" if level > _LEVEL_IFF else text
    raise TypeError(f"not a formula node: {f!r}")


def pretty(f: Formula) -> str:
    """Render with minimal parentheses; parse_formula(pretty(f)) == f."""
    return _pp(f, _LEVEL_IFF)


# --------------------------------------------------------------------------
# Node enumeration

def subformulas(f: Formula) -> list[Formula]:
    """All nodes in preorder; a node's id is its position in this list."""
    out: list[Formula] = []
    stack = [f]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children()))
    return out


# --------------------------------------------------------------------------
# Template expansion

def template_formula(kind: TemplateKind, activation: Activity, target: Activity) -> Formula:
    """The defining formula of a template over concrete activities."""
    a, b = Atom(activation), Atom(target)
    K = TemplateKind
    if kind is K.CHOICE:
        return Eventually(Or((a, b)))
    if kind is K.EXCLUSIVE_CHOICE:
        return And((Eventually(Or((a, b))), Not(And((Eventually(a), Eventually(b))))))
    if kind is K.RESPONDED_EXISTENCE:
        return Implies(Eventually(a), Eventually(b))
    if kind is K.COEXISTENCE:
        return And((
            Implies(Eventually(a), Eventually(b)),
            Implies(Eventually(b), Eventually(a)),
        ))
    if kind is K.RESPONSE:
        return Globally(Implies(a, Eventually(b)))
    if kind is K.PRECEDENCE:
        return WeakUntil(Not(b), a)
    if kind is K.ALTERNATE_RESPONSE:
        return Globally(Implies(a, Next(Until(Not(a), b))))
    if kind is K.ALTERNATE_PRECEDENCE:
        prec = WeakUntil(Not(b), a)
        return And((prec, Globally(Implies(b, WeakNext(prec)))))
    if kind is K.CHAIN_RESPONSE:
        return Globally(Implies(a, Next(b)))
    if kind is K.CHAIN_PRECEDENCE:
        return And((Globally(Implies(Next(b), a)), Not(b)))
    if kind is K.SUCCESSION:
        return And((
            template_formula(K.RESPONSE, activation, target),
            template_formula(K.PRECEDENCE, activation, target),
        ))
    if kind is K.ALTERNATE_SUCCESSION:
        return And((
            template_formula(K.ALTERNATE_RESPONSE, activation, target),
            template_formula(K.ALTERNATE_PRECEDENCE, activation, target),
        ))
    if kind is K.CHAIN_SUCCESSION:
        return And((
            template_formula(K.CHAIN_RESPONSE, activation, target),
            template_formula(K.CHAIN_PRECEDENCE, activation, target),
        ))
    raise ValueError(f"unhandled template kind {kind!r}")


# --------------------------------------------------------------------------
# Empty-trace valuation

def ev_empty(f: Formula) -> bool:
    """Truth value on the empty trace.

    Universal operators (G, R, W, Xw) hold vacuously; existential ones
    (F, U, X) and atoms do not. Boolean connectives are structural.
    """
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, FalseConst):
        return False
    if isinstance(f, Atom):
        return False
    if isinstance(f, Not):
        return not ev_empty(f.arg)
    if isinstance(f, And):
        return all(ev_empty(x) for x in f.args)
    if isinstance(f, Or):
        return any(ev_empty(x) for x in f.args)
    if isinstance(f, Implies):
        return (not ev_empty(f.left)) or ev_empty(f.right)
    if isinstance(f, Iff):
        return ev_empty(f.left) == ev_empty(f.right)
    if isinstance(f, (Next, Until, Eventually)):
        return False
    if isinstance(f, (WeakNext, Release, WeakUntil, Globally)):
        return True
    raise TypeError(f"not a formula node: {f!r}")


# --------------------------------------------------------------------------
# Negation normal form

def nnf(f: Formula) -> Formula:
    """Push negation to atoms; -> and <-> are expanded away.

    Dualities: !X = Xw !, !U = R of negations, !W = F of the negated left
    conjoined with R of the negations, !F = G !, !G = F !.
    """
    return _nnf(f, True)


def _nnf(f: Formula, positive: bool) -> Formula:
    if isinstance(f, TrueConst):
        return TRUE if positive else FALSE
    if isinstance(f, FalseConst):
        return FALSE if positive else TRUE
    if isinstance(f, Atom):
        return f if positive else Not(f)
    if isinstance(f, Not):
        return _nnf(f.arg, not positive)
    if isinstance(f, And):
        parts = tuple(_nnf(x, positive) for x in f.args)
        return And(parts) if positive else Or(parts)
    if isinstance(f, Or):
        parts = tuple(_nnf(x, positive) for x in f.args)
        return Or(parts) if positive else And(parts)
    if isinstance(f, Implies):
        if positive:
            return Or((_nnf(f.left, False), _nnf(f.right, True)))
        return And((_nnf(f.left, True), _nnf(f.right, False)))
    if isinstance(f, Iff):
        l_pos, l_neg = _nnf(f.left, True), _nnf(f.left, False)
        r_pos, r_neg = _nnf(f.right, True), _nnf(f.right, False)
        if positive:
            return Or((And((l_pos, r_pos)), And((l_neg, r_neg))))
        return Or((And((l_pos, r_neg)), And((l_neg, r_pos))))
    if isinstance(f, Next):
        return Next(_nnf(f.arg, True)) if positive else WeakNext(_nnf(f.arg, False))
    if isinstance(f, WeakNext):
        return WeakNext(_nnf(f.arg, True)) if positive else Next(_nnf(f.arg, False))
    if isinstance(f, Until):
        if positive:
            return Until(_nnf(f.left, True), _nnf(f.right, True))
        return Release(_nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Release):
        if positive:
            return Release(_nnf(f.left, True), _nnf(f.right, True))
        return Until(_nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, WeakUntil):
        if positive:
            return WeakUntil(_nnf(f.left, True), _nnf(f.right, True))
        neg_l = _nnf(f.left, False)
        return And((Eventually(neg_l), Release(neg_l, _nnf(f.right, False))))
    if isinstance(f, Eventually):
        return Eventually(_nnf(f.arg, True)) if positive else Globally(_nnf(f.arg, False))
    if isinstance(f, Globally):
        return Globally(_nnf(f.arg, True)) if positive else Eventually(_nnf(f.arg, False))
    raise TypeError(f"not a formula node: {f!r}")


# --------------------------------------------------------------------------
# Evaluation
#
# A trace of n > 0 events is evaluated bottom-up, one step per distinct
# subformula. A step's values at all n positions are packed into one
# integer with position t at bit n-1-t: position 0 is the top bit and the
# last position is bit 0, so a later position is a lower bit. Every
# operator is then a few big-int operations with no loop over positions
# (lowbit(c) = c & -c, the lowest set bit, or 0 when c is 0):
#
#   X p = (p << 1) & full          Xw p = X p | 1
#   F p = full & ~(lowbit(p) - 1)  G p = (lowbit(full & ~p) - 1) & full
#   l U r = ((a + r) ^ a ^ r) >> 1 l W r = ((a + r + 1) ^ a ^ r) >> 1
#   l R r = full & ~(!l U !r)      where a = l | r
#
# U at bit b is r_b | (l_b & U at bit b-1), which is the carry rule of
# a + r: r generates a carry, l alone propagates one and neither kills it.
# So U is the carry vector (a + r) ^ a ^ r, shifted down to the bit that
# received it. W also holds past the last position: a carry-in of 1.

# One evaluation step: (node class, child steps, atom or None).
_Step = tuple[type, tuple[int, ...], Activity | None]


@lru_cache(maxsize=4096)
def _plan(formulas: tuple[Formula, ...]) -> tuple[tuple[_Step, ...], tuple[tuple[int, ...], ...]]:
    """Compile formulas to one list of postorder steps, one per distinct node.

    Returns (steps, slots): step k is (node class, child steps, atom), and
    slots[j][i] is the step computing the node with preorder id i of
    formulas[j], so slots[j][0] is formula j's root. Equal subformulas,
    within one formula or across several, share a step.
    """
    steps: list[_Step] = []
    step_of: dict[Formula, int] = {}

    def walk(node: Formula, slots: list[int]) -> int:
        pre = len(slots)
        slots.append(-1)
        kids = tuple(walk(c, slots) for c in node.children())
        slot = step_of.get(node)
        if slot is None:
            slot = step_of[node] = len(steps)
            atom = node.activity if isinstance(node, Atom) else None
            steps.append((type(node), kids, atom))
        slots[pre] = slot
        return slot

    all_slots = []
    for f in formulas:
        slots: list[int] = []
        walk(f, slots)
        all_slots.append(tuple(slots))
    return tuple(steps), tuple(all_slots)


def _eval_masks(steps, n: int, index: PositionIndex) -> list[int]:
    """Per-step masks over a trace of n > 0 events with position index `index`."""
    full = (1 << n) - 1
    masks: list[int] = []
    # Node classes are tested roughly in order of how often templates use them.
    for op, kids, atom in steps:
        if op is Atom:
            # Position t is digit t of an n-digit binary string: one linear
            # pass (int() in base 2 has no digit limit), where setting bits
            # one by one would copy the mask once per occurrence.
            digits = bytearray(b"0") * n
            for t in index.get(atom, ()):
                digits[t] = 49  # ord("1")
            m = int(digits, 2)
        elif op is Not:
            m = full ^ masks[kids[0]]
        elif op is And:
            m = full
            for k in kids:
                m &= masks[k]
        elif op is Or:
            m = 0
            for k in kids:
                m |= masks[k]
        elif op is Implies:
            m = (full ^ masks[kids[0]]) | masks[kids[1]]
        elif op is Iff:
            m = full ^ masks[kids[0]] ^ masks[kids[1]]
        elif op is Next:
            m = (masks[kids[0]] << 1) & full
        elif op is WeakNext:
            m = ((masks[kids[0]] << 1) & full) | 1
        elif op is Eventually:
            c = masks[kids[0]]
            m = full & ~((c & -c) - 1)
        elif op is Globally:
            c = full ^ masks[kids[0]]
            m = ((c & -c) - 1) & full
        elif op is Until:
            r = masks[kids[1]]
            a = masks[kids[0]] | r
            m = ((a + r) ^ a ^ r) >> 1
        elif op is WeakUntil:
            r = masks[kids[1]]
            a = masks[kids[0]] | r
            m = ((a + r + 1) ^ a ^ r) >> 1
        elif op is Release:
            r = full ^ masks[kids[1]]
            a = (full ^ masks[kids[0]]) | r
            m = full ^ (((a + r) ^ a ^ r) >> 1)
        elif op is TrueConst:
            m = full
        elif op is FalseConst:
            m = 0
        else:
            raise AssertionError(f"no mask rule for {op.__name__}")
        masks.append(m)
    return masks


def tree_row_checker(formulas: Iterable[Formula]) -> Callable[[Trace, PositionIndex], list[bool]]:
    """Resolve one shared plan for all formulas; `row(trace, index)` is
    `[eval_tree(f, trace) for f in formulas]` on a trace whose
    `index_positions` is `index`, from one mask evaluation.
    """
    formulas = tuple(formulas)
    steps, slots = _plan(formulas)
    roots = [s[0] for s in slots]

    def row(trace: Trace, index: PositionIndex) -> list[bool]:
        events = trace.events
        if not events:
            return [ev_empty(f) for f in formulas]
        masks = _eval_masks(steps, len(events), index)
        top = len(events) - 1  # position 0
        return [masks[r] >> top == 1 for r in roots]

    return row


def eval_tree(f: Formula, trace: Trace) -> bool:
    """Satisfaction of f at position 0, or ev_empty(f) on the empty trace."""
    return tree_row_checker((f,))(trace, index_positions(trace.events))[0]


def eval_table(f: Formula, trace: Trace) -> dict[tuple[int, int], bool]:
    """Full table mapping (preorder node id, position) to satisfaction.

    The table holds exactly |subformulas(f)| * len(trace) entries; it is
    empty for the empty trace, whose verdict comes from ev_empty.
    """
    events = trace.events
    if not events:
        return {}
    n = len(events)
    steps, (slots,) = _plan((f,))
    masks = _eval_masks(steps, n, index_positions(events))
    # Digit t of the n-digit binary string is bit n-1-t, that is position t.
    digits = [format(m, f"0{n}b") for m in masks]
    return {
        (node_id, t): digits[slot][t] == "1"
        for node_id, slot in enumerate(slots)
        for t in range(n)
    }


def atoms(f: Formula) -> tuple[Activity, ...]:
    """Distinct activities mentioned by f, sorted by label."""
    found = {node.activity for node in subformulas(f) if isinstance(node, Atom)}
    return tuple(sorted(found))
