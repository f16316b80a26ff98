"""Noncommutative polynomial engine for the q-deformed Weyl algebra in 3D.

Generators are X1, X2, X3 (coordinates) and d1, d2, d3 (derivatives),
encoded as integers 0..5 in that order.  The defining relations are

    X_i X_j = q X_j X_i                 (i < j)
    d_i d_j = q^{-1} d_j d_i            (i < j)
    d_i X_j = q X_j d_i                 (i != j)
    d_i X_i - q^2 X_i d_i = 1 + (q^2 - 1) * sum_{j>i} X_j d_j

A word is in canonical (normal) form when all X's precede all d's and each
group has non-decreasing index, which with this encoding is exactly the
non-decreasing words over 0..5.  By Bergman's diamond lemma every word
has exactly one normal form, however it is reached, so normalize must
agree term for term with the one-swap rewriting stepper that the tests
keep as its oracle (tests/oracles.py).

normalize folds a word's letters left to right into a map
(normal word, q-power) -> int.  Multiplying a normal word by one letter
on the right has a closed form (_insert): the letter takes its sorted
place, picking up one power of q or q^{-1} per letter it passes, and an
X_a that meets copies of d_a also yields the diagonal rule's shorter and
X_k d_k words, summed over the copies.  That product depends on the
pair alone, so _insert is one memo for the whole process, shared by
every normalize call; its keys are tuples of plain ints, which is why
every word is checked into that form first.  Each output word's
q-coefficient becomes one QScalar, times the input coefficient.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from functools import lru_cache

from .scalars import GaussRat, QScalar, Q, Q_INV, SparseTerms

N_GEN = 6
GEN_NAMES = ("X1", "X2", "X3", "d1", "d2", "d3")

Word = tuple  # tuple of int generator codes; () is the identity

_ONE = QScalar.one()


def gen_code(g) -> int:
    """Resolve a generator given as name "X1".."d3" or as a code, which
    _checked_word reads, refusing it with ValueError as normalize does."""
    if isinstance(g, str):
        try:
            return GEN_NAMES.index(g)
        except ValueError:
            raise ValueError(f"unknown generator name {g!r}") from None
    return _checked_word((g,))[0]


def x_code(i: int) -> int:
    """Generator code of X_i, i in 1..3."""
    i = operator.index(i)
    if not 1 <= i <= 3:
        raise ValueError(f"coordinate index {i} out of range 1..3")
    return i - 1


def d_code(i: int) -> int:
    """Generator code of d_i, i in 1..3."""
    i = operator.index(i)
    if not 1 <= i <= 3:
        raise ValueError(f"derivative index {i} out of range 1..3")
    return i + 2


def _checked_word(word) -> Word:
    """word as a tuple of plain ints, refused with ValueError unless every
    code is an integer (operator.index) in 0..5; gen_code reads by it too."""
    try:
        word = tuple(map(operator.index, word))
    except TypeError:
        raise ValueError(
            f"word {tuple(word)} has a generator code that is not an integer") from None
    if word and not 0 <= min(word) <= max(word) < N_GEN:
        raise ValueError(f"word {word} has a generator code outside 0..5")
    return word


def is_normal(word) -> bool:
    return all(word[p] <= word[p + 1] for p in range(len(word) - 1))


@lru_cache(maxsize=None)
def _insert(word, letter) -> tuple:
    """Normal form of a normal word times one letter, as
    ((normal word, q-power, +1 or -1), ...) with no (word, q-power)
    repeated; memoized for the process, so the value is all tuples.

    d_b passes each larger derivative at q.  X_a passes each derivative
    d_c (c != a) at q and each larger coordinate at q^-1.  Each of the
    m copies of d_a it meets branches by the diagonal rule; summed over
    the copies, with h derivatives above d_a, the branches close to
        sum_{j<m} q^(h+2j)          times the word less one d_a,
        (q^(2m) - 1) q^(h+c_k)      times it with X_k and d_k added (k > a),
    where c_k counts the derivatives below d_k in the word less one d_a
    (X_k passes those left of the copy it came from, d_k merges past
    the rest), less the coordinates above X_k.
    """
    at = bisect_right(word, letter)
    placed = word[:at] + (letter,) + word[at:]
    if letter >= 3:
        return ((placed, len(word) - at, 1),)
    first_d = bisect_left(word, 3, at)
    lo = bisect_left(word, letter + 3, first_d)
    hi = bisect_right(word, letter + 3, lo)
    m = hi - lo
    out = [(placed, len(word) - first_d + m - (first_d - at), 1)]
    if m:
        rest = word[:lo] + word[lo + 1:]
        h = len(word) - hi
        out.extend((rest, h + 2 * j, 1) for j in range(m))
        for k in range(letter + 1, 3):
            xk = bisect_right(rest, k, 0, first_d)
            dk = bisect_left(rest, k + 3, first_d)
            grown = rest[:xk] + (k,) + rest[xk:dk] + (k + 3,) + rest[dk:]
            power = h + (dk - first_d) - (first_d - xk)
            out.append((grown, power + 2 * m, 1))
            out.append((grown, power, -1))
    return tuple(out)


def normalize(terms) -> "NCPoly":
    """Rewrite every word of the input to canonical form.

    terms may be an NCPoly or any mapping word -> coefficient.  Each
    word's letters fold into integer q-coefficients through the _insert
    memo, which computes each (normal word, letter) pair once per
    process, and the terms come in ascending word order.
    """
    ring = NCPoly()
    done: dict = {}
    for word, coeff in getattr(terms, "terms", terms).items():
        word = _checked_word(word)
        coeff = QScalar.coerce(coeff)
        if coeff.is_zero():
            continue
        state = {(): {0: 1}}  # normal word -> {q-power: int}
        for letter in word:
            grown: dict = {}
            for w, powers in state.items():
                for w2, dp, sign in _insert(w, letter):
                    into = grown.get(w2)
                    if into is None:
                        into = grown[w2] = {}
                    for p, c in powers.items():
                        p += dp
                        into[p] = into.get(p, 0) + sign * c
            state = grown
        unit = coeff == _ONE
        for w in sorted(state):
            powers = {p: GaussRat._int(c) for p, c in sorted(state[w].items()) if c}
            if powers:
                scalar = _ONE._new(powers)
                ring._accumulate(done, w, scalar if unit else scalar * coeff)
    return ring._new({w: done[w] for w in sorted(done)})


class NCPoly(SparseTerms):
    """Noncommutative polynomial in canonical form: map normal word -> QScalar.

    Construction does not rewrite; callers pass already-normal words or go
    through normalize()/nc_mul().  Zero coefficients are dropped.
    """

    __slots__ = ()
    _coerce = staticmethod(QScalar.coerce)

    def _key(self, word):
        word = _checked_word(word)
        if not is_normal(word):
            raise ValueError(f"word {word_to_str(word)} is not normal")
        return word

    @staticmethod
    def generator(code: int) -> "NCPoly":
        return NCPoly({(code,): 1})

    def to_json(self) -> list:
        """Canonical JSON form: sorted list of {word, coeff rows}."""
        return [
            {"word": word_to_str(w), "coeff": self.terms[w].coeff_rows()}
            for w in sorted(self.terms)
        ]


def nc_mul(a: NCPoly, b: NCPoly) -> NCPoly:
    """Product in the algebra: concatenate, distribute, normalize."""
    raw: dict = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            a._accumulate(raw, w1 + w2, c1 * c2)
    return normalize(raw)


def check_relation(lhs: NCPoly, rhs: NCPoly, name="relation") -> dict:
    """Decide lhs = rhs by canonical forms, as the report {name, holds,
    residual}; NCPoly words are normal, so lhs - rhs is that normal form."""
    residual = lhs - rhs
    return {"name": name, "holds": residual.is_zero(), "residual": residual}


def raw_defining_relations():
    """All 15 generator-pair relations as raw word sums, before rewriting.

    Each entry is (name, lhs, rhs) with both sides given as mappings from
    (possibly non-normal) words to QScalar coefficients, suitable for both
    symbolic normalization and term-by-term numeric application.
    """
    out = []
    qsq = QScalar.from_q_power(2)
    one = QScalar.one()
    for i in range(3):
        for j in range(i + 1, 3):
            out.append((
                f"X{i+1} X{j+1} = q X{j+1} X{i+1}",
                {(x_code(i + 1), x_code(j + 1)): one},
                {(x_code(j + 1), x_code(i + 1)): Q},
            ))
    for i in range(3):
        for j in range(i + 1, 3):
            out.append((
                f"d{i+1} d{j+1} = q^-1 d{j+1} d{i+1}",
                {(d_code(i + 1), d_code(j + 1)): one},
                {(d_code(j + 1), d_code(i + 1)): Q_INV},
            ))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            out.append((
                f"d{i+1} X{j+1} = q X{j+1} d{i+1}",
                {(d_code(i + 1), x_code(j + 1)): one},
                {(x_code(j + 1), d_code(i + 1)): Q},
            ))
    for i in range(3):
        rhs = {(): one}
        for k in range(i + 1, 3):
            rhs[(x_code(k + 1), d_code(k + 1))] = qsq - one
        out.append((
            f"d{i+1} X{i+1} - q^2 X{i+1} d{i+1} = 1 + (q^2-1) sum",
            {(d_code(i + 1), x_code(i + 1)): one, (x_code(i + 1), d_code(i + 1)): -qsq},
            rhs,
        ))
    return out


def defining_relations():
    """The 15 relations with both sides brought to canonical form."""
    return [
        (name, normalize(lhs), normalize(rhs))
        for name, lhs, rhs in raw_defining_relations()
    ]


#: partner offsets of the reduced symplectic identity: the paper's 4 - j,
#: and 7 - j, which pairs every y_j with another
LITERAL_OFFSET = 4
ALTERNATIVE_OFFSET = 7


def y_generator(i: int, alpha) -> NCPoly:
    """Symplectic-style generators: y_1..y_3 are scaled derivatives in
    reversed order, y_4..y_6 are the coordinates.
    """
    if i in (1, 2, 3):
        scale = QScalar.coerce(alpha) * QScalar.from_q_power(i)
        return NCPoly.generator(d_code(4 - i)).scale(scale)
    if i in (4, 5, 6):
        return NCPoly.generator(x_code(i - 3))
    raise ValueError(f"y-generator index {i} out of range 1..6")


def check_reduced_symplectic(partner_offset: int, alpha) -> list:
    """Evaluate y_p y_j - q^-2 y_j y_p, with partner p = partner_offset - j,
    against -q^-j alpha (q^-2 - 1) sum_{k<j} q^{k-j} y_k y_{partner_offset-k}
    for each j in 1..6 whose partner also lies in 1..6.

    Returns one check_relation report per j, pass or fail with the full
    residual; callers decide what to make of them.
    """
    alpha = QScalar.coerce(alpha)
    q_m2 = QScalar.from_q_power(-2)
    reports = []
    for j in range(1, 7):
        p = partner_offset - j
        if not 1 <= p <= 6:
            continue
        yj = y_generator(j, alpha)
        yp = y_generator(p, alpha)
        lhs = nc_mul(yp, yj) - nc_mul(yj, yp).scale(q_m2)
        rhs = NCPoly()
        for k in range(1, j):
            term = nc_mul(y_generator(k, alpha), y_generator(partner_offset - k, alpha))
            rhs = rhs + term.scale(QScalar.from_q_power(k - j))
        rhs = rhs.scale(alpha * (q_m2 - QScalar.one()) * QScalar.from_q_power(-j)).scale(-1)
        reports.append(check_relation(
            lhs, rhs, name=f"partner {partner_offset}-j: j={j} partner={p}"))
    return reports


def word_to_str(word) -> str:
    """Canonical text form, e.g. "X1^2 X3 d2"; the empty word prints as "1"."""
    if not word:
        return "1"
    parts = []
    pos = 0
    while pos < len(word):
        run = 1
        while pos + run < len(word) and word[pos + run] == word[pos]:
            run += 1
        name = GEN_NAMES[word[pos]]
        parts.append(name if run == 1 else f"{name}^{run}")
        pos += run
    return " ".join(parts)

