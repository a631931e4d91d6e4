"""Finite-trace temporal formulas: syntax, templates, and evaluation.

Formulas are immutable, interned DAGs over activity atoms with the
operators !, &, |, ->, <->, X (strong next), Xw (weak next), U, R, W, F,
G. Satisfaction is over finite traces: X requires a successor position,
U demands its right operand at some reachable position, and the empty
trace is handled by a structural valuation (`ev_empty`).
"""

from __future__ import annotations

import re
import threading
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .core import Activity, CodedLog, Record, TemplateKind, Trace, code_events, remap


class Formula(Record):
    """Base class for formula nodes, immutable and interned: building a
    node of the class and fields of one already built, given by position,
    gives back that node, as `Activity` does for a label. So equality and
    hashing are identity, and a formula is a DAG whose equal subformulas
    are one node. The pool is process-global and only grows, like
    `Activity._pool`: every node built stays alive until the process exits.
    """

    __slots__ = ()

    _pool: dict[tuple, "Formula"] = {}
    _lock = threading.Lock()

    def __new__(cls, *fields) -> "Formula":
        key = (cls, *fields)
        node = Formula._pool.get(key)
        if node is None:
            node = object.__new__(cls)
            Record.__init__(node, *fields)
            with Formula._lock:
                node = Formula._pool.setdefault(key, node)
        return node

    # __new__ sets the fields; equality and hashing are object's.
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def children(self) -> tuple["Formula", ...]:
        return ()

    def __str__(self) -> str:
        return pretty(self)


class TrueConst(Formula):
    __slots__ = ()


class FalseConst(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = _fields = ("activity",)


class _Unary(Formula):
    __slots__ = _fields = ("arg",)

    def children(self) -> tuple[Formula, ...]:
        return (self.arg,)


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)


class _Nary(Formula):
    __slots__ = _fields = ("args",)

    def __new__(cls, args: tuple[Formula, ...]) -> "_Nary":
        if len(args) < 2:
            raise ValueError(f"{cls.__name__} needs at least two operands")
        return super().__new__(cls, args)

    def children(self) -> tuple[Formula, ...]:
        return self.args


# The operators add no fields to their arity's class. The pool's key holds
# the class, so nodes of one arity differ by it; __repr__ names the subclass.

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
# Operator table: the parser, the printer and nnf all read it

# Binary levels, loosest first, as (spelling to class, n-ary). An n-ary
# level gathers a chain into one node; the other levels are right
# associative. Unary operators bind tighter than every level.
_BINARY_LEVELS: tuple[tuple[dict[str, type], bool], ...] = (
    ({"<->": Iff}, False),
    ({"->": Implies}, False),
    ({"|": Or}, True),
    ({"&": And}, True),
    ({"U": Until, "W": WeakUntil, "R": Release}, False),
)
_UNARY = {"!": Not, "X": Next, "Xw": WeakNext, "F": Eventually, "G": Globally}
_UNARY_LEVEL = len(_BINARY_LEVELS)

# Each operator class's spelling and level.
_SYNTAX: dict[type, tuple[str, int]] = {
    cls: (op, level)
    for level, (ops, _) in enumerate(_BINARY_LEVELS)
    for op, cls in ops.items()
}
_SYNTAX.update((cls, (op, _UNARY_LEVEL)) for op, cls in _UNARY.items())

_CONSTANTS = {"true": TRUE, "false": FALSE}

# Words an unquoted label cannot be; the symbols among them are never
# read as a label anyway.
_RESERVED = {*_CONSTANTS, *(op for op, _ in _SYNTAX.values())}

# Negation pushed through an operator gives its dual over negated operands.
_DUAL = {And: Or, Next: WeakNext, Until: Release, Eventually: Globally}
_DUAL.update({dual: cls for cls, dual in _DUAL.items()})


# --------------------------------------------------------------------------
# Parsing

class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; `offset` is the character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<op><->|->|[&|!])
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<quoted>"(?:[^"\\]|\\.)*")
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")


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
    # The token pattern lets a backslash escape any character but a newline.
    body = tok[1:-1]
    for m in _ESCAPE_RE.finditer(body):
        if m.group(1) not in '"\\':
            raise FormulaSyntaxError("bad escape in quoted label", offset + m.start() + 1)
    return _ESCAPE_RE.sub(r"\1", body)


# How deep a formula may nest, counted two ways: the brackets, unary
# operators and right operands of right-associative operators open at the
# parser's cursor, and the operators on any path from the root to a leaf
# of the tree it builds. Under the interpreter's default recursion limit
# the parser fails at about 150 nested brackets (seven frames each), and
# nnf and compile_formula at about 330 nested operators; this bound stays
# below both.
_MAX_NESTING = 100


class _Parser:
    """Precedence climbing over _BINARY_LEVELS, with unary operators and
    operands below the tightest level. An operator is found by its token's
    text: no other token spells one, as a quoted label keeps its quotes.
    Each method returns a formula with its height, the operators on its
    longest path to a leaf."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # nesting levels open at the cursor

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def enter(self, offset: int) -> None:
        """Open one nesting level at the token at `offset`."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise _too_deep(offset)

    @staticmethod
    def grow(height: int, offset: int) -> int:
        """The height of the node that the operator at `offset` makes over
        operands at most `height` tall."""
        if height >= _MAX_NESTING:
            raise _too_deep(offset)
        return height + 1

    def parse(self) -> Formula:
        f, _ = self.binary(0)
        kind, text, offset = self.tokens[self.i]
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected trailing input {text!r}", offset)
        return f

    def binary(self, level: int) -> tuple[Formula, int]:
        if level == _UNARY_LEVEL:
            return self.unary()
        ops, nary = _BINARY_LEVELS[level]
        f, height = self.binary(level + 1)
        parts = [f]
        while self.tokens[self.i][1] in ops:
            _, op, offset = self.advance()
            cls = ops[op]
            if not nary:
                self.enter(offset)
                right, right_height = self.binary(level)
                self.depth -= 1
                return cls(f, right), self.grow(max(height, right_height), offset)
            part, part_height = self.binary(level + 1)
            parts.append(part)
            height = max(height, part_height)
            self.grow(height, offset)
        return (f, height) if len(parts) == 1 else (cls(tuple(parts)), height + 1)

    def unary(self) -> tuple[Formula, int]:
        kind, text, offset = self.advance()
        if text in _UNARY:
            self.enter(offset)
            arg, height = self.unary()
            self.depth -= 1
            return _UNARY[text](arg), self.grow(height, offset)
        if kind == "lparen":
            self.enter(offset)
            f = self.binary(0)
            kind, text, offset = self.advance()
            if kind != "rparen":
                raise FormulaSyntaxError(f"expected rparen, found {text!r}", offset)
            self.depth -= 1
            return f
        if kind == "quoted":
            label = _unquote(text, offset)
            try:
                return Atom(Activity(label)), 0
            except ValueError as exc:  # an empty or reserved label
                raise FormulaSyntaxError(str(exc), offset) from None
        if kind == "ident":
            if text in _CONSTANTS:
                return _CONSTANTS[text], 0
            if text in _RESERVED:
                raise FormulaSyntaxError(
                    f"operator {text!r} found where an operand was expected", offset
                )
            return Atom(Activity(text)), 0
        raise FormulaSyntaxError(f"unexpected token {text!r}", offset)


def _too_deep(offset: int) -> FormulaSyntaxError:
    return FormulaSyntaxError(f"formula nests deeper than {_MAX_NESTING} levels", offset)


def parse_formula(text: str) -> Formula:
    """Parse formula text. Raises FormulaSyntaxError with a character offset."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Pretty printing (round-trips through parse_formula)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _atom_text(a: Activity) -> str:
    if _IDENT_RE.match(a.label) and a.label not in _RESERVED:
        return a.label
    escaped = a.label.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _pp(f: Formula, level: int) -> str:
    """f printed where the context binds at `level`: a node at a looser
    level gets brackets. Right-associative operators print their right
    operand at their own level, every other operand one level tighter."""
    if isinstance(f, Atom):
        return _atom_text(f.activity)
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, FalseConst):
        return "false"
    syntax = _SYNTAX.get(type(f))
    if syntax is None:
        raise TypeError(f"not a formula node: {f!r}")
    op, own = syntax
    if own == _UNARY_LEVEL:
        arg = _pp(f.arg, own)
        # A word operator is spaced from an operand that opens no bracket.
        return f"{op} {arg}" if op.isalpha() and not arg.startswith("(") else op + arg
    if isinstance(f, _Nary):
        text = f" {op} ".join(_pp(x, own + 1) for x in f.args)
    else:
        text = f"{_pp(f.left, own + 1)} {op} {_pp(f.right, own)}"
    return f"({text})" if level > own else text


def pretty(f: Formula) -> str:
    """Render with minimal parentheses; parse_formula(pretty(f)) == f."""
    return _pp(f, 0)


# --------------------------------------------------------------------------
# Node enumeration

def subformulas(f: Formula) -> list[Formula]:
    """Each distinct node once, in preorder."""
    seen: dict[Formula, None] = {}  # in the order first seen
    stack = [f]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen[node] = None
            stack.extend(reversed(node.children()))
    return list(seen)


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

@lru_cache(maxsize=4096)
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
    conjoined with R of the negations, !F = G !, !G = F !. Each distinct
    node is rewritten once per polarity, and the result shares the rewrites.
    """
    return _nnf(f, True, {})


def _nnf(f: Formula, positive: bool, memo: dict) -> Formula:
    done = memo.get((f, positive))
    if done is None:
        done = memo[f, positive] = _rewrite(f, positive, memo)
    return done


def _rewrite(f: Formula, positive: bool, memo: dict) -> Formula:
    """f in negation normal form, or its negation's when not `positive`."""
    if isinstance(f, TrueConst):
        return TRUE if positive else FALSE
    if isinstance(f, FalseConst):
        return FALSE if positive else TRUE
    if isinstance(f, Atom):
        return f if positive else Not(f)
    cls = type(f)
    if cls is Not:
        return _nnf(f.arg, not positive, memo)
    if cls is Implies:
        if positive:
            return Or((_nnf(f.left, False, memo), _nnf(f.right, True, memo)))
        return And((_nnf(f.left, True, memo), _nnf(f.right, False, memo)))
    if cls is Iff:
        l_pos, l_neg = _nnf(f.left, True, memo), _nnf(f.left, False, memo)
        r_pos, r_neg = _nnf(f.right, True, memo), _nnf(f.right, False, memo)
        if positive:
            return Or((And((l_pos, r_pos)), And((l_neg, r_neg))))
        return Or((And((l_pos, r_neg)), And((l_neg, r_pos))))
    if cls is WeakUntil and not positive:
        neg_l = _nnf(f.left, False, memo)
        return And((Eventually(neg_l), Release(neg_l, _nnf(f.right, False, memo))))
    if cls not in _SYNTAX:
        raise TypeError(f"not a formula node: {f!r}")
    if not positive:
        cls = _DUAL[cls]
    args = tuple(_nnf(x, positive, memo) for x in f.children())
    return cls(args) if isinstance(f, _Nary) else cls(*args)


# --------------------------------------------------------------------------
# Evaluation
#
# A log is evaluated bottom-up, one step per distinct subformula, over one
# layout of the whole log as a binary string: each trace's positions in
# order, then one guard digit (an empty trace is its guard alone); digit d
# of an L-digit layout is bit L-1-d, so a later position is a lower bit
# and each trace's guard sits just below its last position. A step's
# values at every digit of the log are one integer, 0 on guards, and every
# operator is a few big-int operations with no loop over positions or
# traces. With B the guard mask, full = ALL ^ B and last = (B << 1) & full:
#
#   X p = (p << 1) & full          Xw p = X p | last
#   l U r = ((a + r) ^ a ^ r) >> 1 where a = l | r
#   l W r = l U (r | B), & full    l R r = full ^ (!l U !r)
#   F p = true U p                 G p = full ^ F(full ^ p)
#
# U at bit b is r_b | (l_b & U at bit b-1), which is the carry rule of
# a + r: r generates a carry, l alone propagates one and neither kills it.
# So U is the carry vector (a + r) ^ a ^ r, shifted down to the bit that
# received it. A guard is 0 in a and r, so it kills every carry: none
# crosses from one trace into the one before it. W also holds past the
# last position: the guard in r is its carry-in of 1.

# One evaluation step: (node class, child steps, atom or None).
_Step = tuple[type, tuple[int, ...], Activity | None]

# Translates the digits b"0" and b"1" to the bytes 0 and 1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=4096)
def _plan(formulas: tuple[Formula, ...]) -> tuple[tuple[_Step, ...], tuple[int, ...]]:
    """Compile formulas to one list of postorder steps, one per distinct node.

    Returns (steps, roots): step k is (node class, child steps, atom), and
    roots[j] is the step computing formulas[j]. Equal subformulas, within
    one formula or across several, share a step.
    """
    steps: list[_Step] = []
    step_of: dict[Formula, int] = {}

    def walk(node: Formula) -> int:
        step = step_of.get(node)
        if step is None:
            kids = tuple(walk(c) for c in node.children())
            step = step_of[node] = len(steps)
            atom = node.activity if isinstance(node, Atom) else None
            steps.append((type(node), kids, atom))
        return step

    roots = tuple(walk(f) for f in formulas)
    return tuple(steps), roots


def _atom_masks(atoms: list[Activity], coded: CodedLog) -> dict[Activity, int]:
    """The mask of each atom over the layout of the whole coded log.

    The layout is written once as bytes, one per digit, by one `remap`
    of the codes: byte k for an event of the k-th atom, 0 for a guard or
    an event of any other activity. Each atom's mask is then one
    `bytes.translate` to '0'/'1' digits and one `int(..., 2)`, which has
    no digit limit. A plan naming more than 255 atoms writes the layout
    once per 255 of them.
    """
    masks = {}
    for first in range(0, len(atoms), 255):
        chunk = atoms[first : first + 255]
        byte = bytearray(len(coded.codes) + 2)  # one per code, the guard's last
        for k, atom in enumerate(chunk, 1):
            code = coded.codes.get(atom)
            if code is not None:
                byte[code] = k
        layout = remap(coded.events, byte)
        for k, atom in enumerate(chunk, 1):
            masks[atom] = int(layout.translate(b"0" * k + b"1" + b"0" * (255 - k)), 2)
    return masks


def _eval_steps(
    steps: tuple[_Step, ...], roots: tuple[int, ...], coded: CodedLog
) -> list[int | None]:
    """Per-step masks over the layout of a coded log of at least one trace.

    Each mask is dropped, left as None, after the last step that reads
    it, and each atom's mask when its step reads it, so only the roots'
    masks are left at the end.
    """
    # The guard digits: each trace's positions are 0s, then its guard a 1.
    guards = int(b"1".join([b"0" * n for n in coded.lengths]) + b"1", 2)
    full = ((1 << len(coded.events)) - 1) ^ guards
    last = (guards << 1) & full  # an empty trace has a guard and no last position
    atom = _atom_masks([a for op, _, a in steps if op is Atom], coded)
    # dead[k]: the steps whose last reader is step k; a root is read after the loop.
    reader = {kid: k for k, (_, kids, _) in enumerate(steps) for kid in kids}
    for r in roots:
        reader.pop(r, None)
    dead: list[list[int]] = [[] for _ in steps]
    for kid, k in reader.items():
        dead[k].append(kid)
    masks: list[int | None] = []
    # Node classes are tested roughly in order of how often templates use them.
    for op, kids, activity in steps:
        if op is Atom:
            m = atom.pop(activity)
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
            m = ((masks[kids[0]] << 1) & full) | last
        elif op is Eventually:
            r = masks[kids[0]]
            m = ((full + r) ^ full ^ r) >> 1
        elif op is Globally:
            r = full ^ masks[kids[0]]
            m = full ^ (((full + r) ^ full ^ r) >> 1)
        elif op is Until:
            r = masks[kids[1]]
            a = masks[kids[0]] | r
            m = ((a + r) ^ a ^ r) >> 1
        elif op is WeakUntil:
            r = masks[kids[1]] | guards
            a = masks[kids[0]] | r
            m = (((a + r) ^ a ^ r) >> 1) & full
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
        for k in dead[len(masks)]:
            masks[k] = None
        masks.append(m)
    return masks


def eval_log(formulas: Sequence[Formula], coded: CodedLog) -> list[bytearray]:
    """Every formula's verdict on every trace of a coded log.

    Every atom of `formulas` that occurs in the log must be among the
    coded activities. `verdicts[j][i]` is 1 when formula j holds at
    position 0 of trace i, or on an empty trace i when ev_empty holds,
    and 0 otherwise. One plan holds each distinct subformula of all the
    formulas once, and it is evaluated once over the whole log.
    """
    formulas = tuple(formulas)
    if not coded.lengths:
        return [bytearray() for _ in formulas]
    steps, roots = _plan(formulas)
    masks = _eval_steps(steps, roots, coded)
    # Digit 0 is a sentinel holding ev_empty, read by empty traces; the
    # layout follows it, each trace's first position just after the guard
    # of the trace before.
    firsts, width = [], 1
    for n in coded.lengths:
        firsts.append(width if n else 0)
        width += n + 1
    pick = itemgetter(*firsts)
    top = width - 1
    last_read = {r: j for j, r in enumerate(roots)}
    verdicts = []
    for j, (f, r) in enumerate(zip(formulas, roots)):
        digits = format(masks[r] | (ev_empty(f) << top), f"0{width}b")
        if last_read[r] == j:
            masks[r] = None
        # One digit per trace ("".join also takes the str that pick
        # returns for a one-trace log), as bytes 0 and 1.
        verdicts.append(bytearray("".join(pick(digits)), "ascii").translate(_DIGIT_VALUES))
    return verdicts


def eval_tree(f: Formula, trace: Trace) -> bool:
    """Satisfaction of f at position 0, or ev_empty(f) on the empty trace."""
    return eval_log((f,), code_events((trace,), trace.events))[0][0] == 1


def atoms(f: Formula) -> tuple[Activity, ...]:
    """Distinct activities mentioned by f, sorted by label."""
    found = {node.activity for node in subformulas(f) if isinstance(node, Atom)}
    return tuple(sorted(found))
