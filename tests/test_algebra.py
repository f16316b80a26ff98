import hashlib
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from qweyl.scalars import GaussRat, QScalar, Q, Q_INV
from qweyl.algebra import (
    ALTERNATIVE_OFFSET,
    LITERAL_OFFSET,
    NCPoly,
    _insert,
    check_reduced_symplectic,
    check_relation,
    d_code,
    defining_relations,
    gen_code,
    is_normal,
    nc_mul,
    normalize,
    raw_defining_relations,
    word_to_str,
    x_code,
    y_generator,
)
from qweyl.realization import MonomialVec, apply_word

import oracles
from oracles import NoRewriteApplicable, normalize_by_rewriting, rewrite_at

X1, X2, X3 = (NCPoly.generator(x_code(i)) for i in (1, 2, 3))
D1, D2, D3 = (NCPoly.generator(d_code(i)) for i in (1, 2, 3))


def poly(word, coeff=1):
    return NCPoly({word: coeff})


# ---------------------------------------------------------------- rewriting

def test_rewrite_mixed_offdiagonal():
    # d1 X2 -> q X2 d1
    out = normalize({(d_code(1), x_code(2)): 1})
    assert out == poly((x_code(2), d_code(1)), Q)


def test_rewrite_diagonal_last_index():
    # d3 X3 -> 1 + q^2 X3 d3, the index-above sum being empty
    out = normalize({(d_code(3), x_code(3)): 1})
    assert out == NCPoly({(): 1}) + poly((x_code(3), d_code(3)), QScalar.from_q_power(2))


def test_rewrite_diagonal_first_index():
    # d1 X1 -> 1 + q^2 X1 d1 + (q^2-1)(X2 d2 + X3 d3)
    out = normalize({(d_code(1), x_code(1)): 1})
    qsq = QScalar.from_q_power(2)
    want = (
        NCPoly({(): 1})
        + poly((x_code(1), d_code(1)), qsq)
        + poly((x_code(2), d_code(2)), qsq - 1)
        + poly((x_code(3), d_code(3)), qsq - 1)
    )
    assert out == want


def test_rewrite_coordinate_swap():
    # X2 X1 -> q^-1 X1 X2
    out = normalize({(x_code(2), x_code(1)): QScalar.one()})
    assert out == poly((x_code(1), x_code(2)), Q_INV)


def test_rewrite_derivative_swap():
    # d2 d1 -> q d1 d2, forced by d1 d2 = q^-1 d2 d1
    out = normalize({(d_code(2), d_code(1)): QScalar.one()})
    assert out == poly((d_code(1), d_code(2)), Q)


def test_rewrite_step_refuses_normal_word():
    with pytest.raises(NoRewriteApplicable):
        rewrite_at((x_code(1), d_code(2)), 0)
    with pytest.raises(NoRewriteApplicable):
        rewrite_at((x_code(1), x_code(1)), 0)


def test_normalize_three_letter_confluence():
    # d3 X3 X3 via either first rewrite ends identically
    w = (d_code(3), x_code(3), x_code(3))
    left = normalize_by_rewriting({w: QScalar.one()}, "leftmost")
    right = normalize_by_rewriting({w: QScalar.one()}, "rightmost")
    assert left == right
    # and equals normalize((1 + q^2 X3 d3) X3)
    step = normalize({w[:2]: 1})
    via = nc_mul(step, X3)
    assert left == via


def test_normalize_recovers_unit():
    # d2 X2 - q^2 X2 d2 - (q^2-1) X3 d3 -> 1
    qsq = QScalar.from_q_power(2)
    raw = {
        (d_code(2), x_code(2)): QScalar.one(),
        (x_code(2), d_code(2)): -qsq,
        (x_code(3), d_code(3)): -(qsq - 1),
    }
    assert normalize(raw) == NCPoly({(): 1})


# every reader of generator codes: normalize, its one-swap oracle, and the
# numeric word path, code by code (gen_code) and as a word (apply_word)
CODE_READERS = (
    normalize,
    lambda t: normalize_by_rewriting(t, "leftmost"),
    lambda t: [gen_code(g) for w in t for g in w],
    lambda t: [apply_word(w, MonomialVec.basis((0, 0, 0)), 0.01) for w in t],
)


@pytest.mark.parametrize("word", [(7, 0), (-1, 0), (0, 3, 6)])
def test_malformed_generator_codes_rejected(word):
    # codes outside 0..5 name no generator on any path, whether the
    # word is out of order or already sorted
    for run in CODE_READERS:
        with pytest.raises(ValueError, match=r"word \(.*\) has a generator code"):
            run({word: 1})
    with pytest.raises(ValueError, match="generator code outside 0..5"):
        NCPoly({tuple(sorted(word)): 1})


@pytest.mark.parametrize("word", [(3.0, 0.5), (3.0, 0), ("3", 0), (None,), (3.7, 0)])
def test_non_integer_generator_codes_rejected(word):
    # a code must be an integer, not merely equal to one; the word path
    # reads a string as a generator name, and "3" names none
    for run in CODE_READERS[:2] if "3" in word else CODE_READERS:
        with pytest.raises(ValueError, match="not an integer"):
            run({word: 1})


def test_integer_codes_become_plain_ints():
    # bools and numpy integers name generators by their int values, and
    # only plain ints reach the output and the shared _insert memo, from
    # which a later call with plain codes reads
    def code_types(poly):
        return {type(c) for w in poly.terms for c in w}

    _insert.cache_clear()
    got = normalize({(np.int64(3), np.int64(0)): 1})
    want = normalize({(3, 0): 1})
    assert list(got.terms.items()) == list(want.terms.items())
    assert code_types(got) == code_types(want) == {int}
    assert code_types(normalize({(True, np.int64(3), False): 1})) == {int}
    assert code_types(NCPoly({(np.int64(0), True): 1})) == {int}


@pytest.mark.parametrize("word", [(0,), (3, 0)])
def test_unknown_strategy_rejected(word):
    # refused whether or not the word needs a rewrite
    with pytest.raises(ValueError, match="unknown strategy"):
        normalize_by_rewriting({word: 1}, "middle")


# ------------------------------------------------------------------ product

def test_nc_mul_identity():
    p = nc_mul(X1, D2) + NCPoly({(): 1}).scale(3)
    assert nc_mul(p, NCPoly({(): 1})) == p
    assert nc_mul(NCPoly({(): 1}), p) == p


def test_nc_mul_coordinate_relation():
    assert (nc_mul(X1, X2) - nc_mul(X2, X1).scale(Q)).is_zero()


def test_nc_mul_derivative_relation():
    assert (nc_mul(D1, D2) - nc_mul(D2, D1).scale(Q_INV)).is_zero()


def test_nc_mul_associativity_random():
    rng = random.Random(2024)

    def rand_poly():
        p = NCPoly()
        for _ in range(rng.randint(1, 2)):
            w = tuple(sorted(rng.choices(range(6), k=rng.randint(0, 3))))
            p = p + NCPoly({w: rng.randint(-3, 3)})
        return p

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert nc_mul(nc_mul(a, b), c) == nc_mul(a, nc_mul(b, c))


# ---------------------------------------------------------------- relations

def test_check_relation_positive():
    rep = check_relation(nc_mul(D1, X2), nc_mul(X2, D1).scale(Q))
    assert rep["holds"] and rep["residual"].is_zero()


def test_check_relation_negative_control():
    rep = check_relation(nc_mul(X1, X2), nc_mul(X2, X1))
    assert not rep["holds"]
    # X1 X2 - q^-1 X1 X2 = (1 - q^-1) X1 X2
    assert rep["residual"] == poly((x_code(1), x_code(2)), QScalar.one() - Q_INV)


def test_all_fifteen_defining_relations():
    rels = defining_relations()
    assert len(rels) == 15
    for name, lhs, rhs in rels:
        rep = check_relation(lhs, rhs, name=name)
        assert rep["holds"], f"{name}: residual {rep['residual']!r}"


def test_q_one_specialization_classical_weyl():
    # at q=1 every normalized commutator vanishes except [d_i, X_i] = 1;
    # a coefficient's value there is the sum of its q-power coefficients
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            di, xj = NCPoly.generator(d_code(i)), NCPoly.generator(x_code(j))
            comm = nc_mul(di, xj) - nc_mul(xj, di)
            at_one = {w: sum(c.terms.values(), GaussRat(0))
                      for w, c in comm.terms.items()}
            at_one = {w: c for w, c in at_one.items() if not c.is_zero()}
            if i == j:
                assert at_one == {(): GaussRat(1)}
            else:
                assert at_one == {}
    for a, b in [(x_code(1), x_code(2)), (x_code(2), x_code(3)), (d_code(1), d_code(3))]:
        comm = nc_mul(NCPoly.generator(a), NCPoly.generator(b)) \
            - nc_mul(NCPoly.generator(b), NCPoly.generator(a))
        assert all(sum(c.terms.values(), GaussRat(0)).is_zero()
                   for c in comm.terms.values())


# -------------------------------------------------------------- termination

def inversion_measure(word) -> tuple:
    """(mixed, same_type) inversion counts; strictly decreases per rewrite.

    mixed counts pairs (p < r) with word[p] a derivative and word[r] a
    coordinate; same_type counts strictly-decreasing index pairs within
    the coordinate letters plus those within the derivative letters.
    """
    mixed = 0
    same = 0
    n = len(word)
    for p in range(n):
        for r in range(p + 1, n):
            a, b = word[p], word[r]
            if a >= 3 and b < 3:
                mixed += 1
            elif (a < 3) == (b < 3) and a > b:
                same += 1
    return (mixed, same)


def test_inversion_measure_strictly_decreases():
    rng = random.Random(7)
    for _ in range(300):
        word = tuple(rng.choices(range(6), k=rng.randint(2, 6)))
        if is_normal(word):
            continue
        before = inversion_measure(word)
        for pos in range(len(word) - 1):
            if word[pos] <= word[pos + 1]:
                continue
            for new_word, _ in rewrite_at(word, pos):
                assert inversion_measure(new_word) < before, (word, pos, new_word)


def test_confluence_500_words():
    rng = random.Random(12345)
    for n in range(500):
        word = tuple(rng.choices(range(6), k=rng.randint(1, 6)))
        src = {word: QScalar.one()}
        left = normalize_by_rewriting(src, "leftmost")
        right = normalize_by_rewriting(src, "rightmost")
        shuffled = normalize_by_rewriting(src, "random", seed=n)
        assert left == right == shuffled, word


# sha256 of the normal forms of 200 seeded words of length 4-10 under the
# leftmost and rightmost strategies: every term, every q-power and their
# insertion orders, so a change to the coefficient ring that reorders or
# alters a single term shows here
NORMAL_FORM_DIGEST = "1241dbb66269fdefb25accbf8c3fb0cf528337ef00d7b7e7e40caf532e4881c2"


def test_normal_forms_golden_digest():
    rng = random.Random(2010)
    words = [tuple(rng.choices(range(6), k=rng.randint(4, 10))) for _ in range(200)]
    forms = []
    for strategy in ("leftmost", "rightmost"):
        for word in words:
            nf = normalize_by_rewriting({word: 1}, strategy)
            forms.append((word, [
                (w, [(p, str(c.re), str(c.im)) for p, c in q.terms.items()])
                for w, q in nf.terms.items()
            ]))
    assert hashlib.sha256(repr(forms).encode()).hexdigest() == NORMAL_FORM_DIGEST


# ------------------------------------------ insertion kernel vs the stepper
#
# normalize never calls rewrite_at; the leftmost normalize_by_rewriting
# is its oracle, and by the diamond lemma the two must agree exactly.

def stepper(terms):
    return normalize_by_rewriting(terms, "leftmost")


def random_scalar(rng):
    """A QScalar over one to three q-powers with fractional Gaussian parts."""
    def part():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return QScalar({rng.randint(-4, 4): GaussRat(part(), part())
                    for _ in range(rng.randint(1, 3))})


@pytest.mark.parametrize("chunk", range(4))
def test_default_path_matches_stepper_on_words(chunk):
    # 4 x 750 seeded words of length 0-12
    rng = random.Random(9000 + chunk)
    for _ in range(750):
        word = tuple(rng.choices(range(6), k=rng.randint(0, 12)))
        nf = normalize({word: 1})
        assert nf == stepper({word: 1}), word
        assert list(nf.terms) == sorted(nf.terms), word


def test_default_path_matches_stepper_on_relations():
    for name, lhs, rhs in raw_defining_relations():
        difference = dict(lhs)
        for word, c in rhs.items():
            difference[word] = difference.get(word, 0) + (-c)
        for raw in (lhs, rhs, difference):
            assert normalize(raw) == stepper(raw), name
        assert normalize(difference).is_zero(), name


@pytest.mark.parametrize("chunk", range(2))
def test_default_path_matches_stepper_on_scalar_inputs(chunk):
    # 2 x 750 sums of words with fractional, multi-power coefficients;
    # every fifth is a defining relation between random words, lhs - rhs,
    # which must cancel to zero
    rng = random.Random(4242 + chunk)
    relations = raw_defining_relations()
    zeros = 0
    for n in range(750):
        terms = {}
        if n % 5 == 0:
            _, lhs, rhs = rng.choice(relations)
            head = tuple(rng.choices(range(6), k=rng.randint(0, 3)))
            tail = tuple(rng.choices(range(6), k=rng.randint(0, 3)))
            coeff = random_scalar(rng)
            for side, sign in ((lhs, 1), (rhs, -1)):
                for word, c in side.items():
                    key = head + word + tail
                    terms[key] = terms.get(key, 0) + c * coeff * sign
        else:
            for _ in range(rng.randint(1, 4)):
                word = tuple(rng.choices(range(6), k=rng.randint(0, 7)))
                terms[word] = terms.get(word, 0) + random_scalar(rng)
        want = stepper(terms)
        got = normalize(terms)
        assert got == want, terms
        assert list(got.terms) == sorted(got.terms)
        zeros += want.is_zero()
    assert zeros >= 150


def test_default_path_makes_no_rewrite_steps(monkeypatch):
    calls = []
    real = oracles.rewrite_at

    def counted(word, pos):
        calls.append(word)
        return real(word, pos)

    monkeypatch.setattr(oracles, "rewrite_at", counted)
    rng = random.Random(77)
    for _ in range(200):
        normalize({tuple(rng.choices(range(6), k=rng.randint(2, 10))): 1})
    for _, lhs, rhs in raw_defining_relations():
        normalize(lhs)
        nc_mul(normalize(rhs), D1)
    assert calls == []
    # the counter sees the stepper, so an empty count is not vacuous
    stepper({(d_code(1), x_code(1)): 1})
    assert len(calls) == 1


# ------------------------------------------------------------ the memo
#
# _insert is shared by every normalize call in the process, so what an
# earlier call left in it must not change a later result.

def seeded_words(seed, count):
    rng = random.Random(seed)
    return [tuple(rng.choices(range(6), k=rng.randint(4, 10))) for _ in range(count)]


def met_pairs(words):
    """The (normal word, letter) pairs normalize meets on these words,
    each reached word kept whether or not its coefficients cancel."""
    pairs = set()
    for word in words:
        state = {()}
        for letter in word:
            pairs.update((w, letter) for w in state)
            state = {w2 for w in state for w2, _, _ in _insert(w, letter)}
    return pairs


def forms(polys):
    return [[(w, list(q.terms.items())) for w, q in p.terms.items()] for p in polys]


def test_memo_order_does_not_change_normal_forms():
    words = seeded_words(31, 300)
    _insert.cache_clear()
    cold = [normalize({w: 1}) for w in words]
    assert _insert.cache_info().hits > 0
    _insert.cache_clear()
    for w in seeded_words(32, 300):
        normalize({w: 1})
    warm = [normalize({w: 1}) for w in reversed(words)][::-1]
    # terms, word order and each QScalar's q-power order
    assert forms(warm) == forms(cold)
    for word, nf in zip(words, warm):
        assert nf == stepper({word: 1}), word
    pairs = met_pairs(words + seeded_words(32, 300))
    assert _insert.cache_info().currsize == len(pairs)
    for pair in pairs:
        out = _insert(*pair)
        assert type(out) is tuple and all(type(t) is tuple for t in out), pair
        assert all(type(t[0]) is tuple for t in out), pair


#: tracemalloc bytes a memo entry may hold: its key, its tuple of output
#: tuples and their new words, and its share of the memo's dict; 408 were
#: measured over the 1,000 words below
MEMO_ENTRY_BYTES = 512


def test_memo_footprint_per_entry():
    # in a fresh process, where freed tuples of an earlier test cannot be
    # reused from CPython's free lists past tracemalloc: the memo is what
    # normalize keeps between calls, so what it holds after 1,000 seeded
    # words, per entry, bounds what it adds to a run's peak
    code = (
        "import random, tracemalloc\n"
        "from qweyl.algebra import _insert, normalize\n"
        "rng = random.Random(1)\n"
        "words = [tuple(rng.choices(range(6), k=rng.randint(4, 10)))\n"
        "         for _ in range(1000)]\n"
        "tracemalloc.start()\n"
        "for word in words:\n"
        "    normalize({word: 1})\n"
        "held = tracemalloc.get_traced_memory()[0]\n"
        "tracemalloc.stop()\n"
        "print(held, _insert.cache_info().currsize)\n"
    )
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    held, entries = map(int, done.stdout.split())
    assert entries == len(met_pairs(seeded_words(1, 1000)))
    assert 0 < held <= MEMO_ENTRY_BYTES * entries, held / entries


# ------------------------------------------------------- symplectic checks

def test_y_generators():
    alpha = QScalar.coerce(1)
    assert y_generator(4, alpha) == X1
    assert y_generator(6, alpha) == X3
    assert y_generator(1, alpha) == poly((d_code(3),), Q)
    assert y_generator(3, alpha) == poly((d_code(1),), QScalar.from_q_power(3))
    with pytest.raises(ValueError):
        y_generator(7, alpha)
    with pytest.raises(ValueError):
        y_generator(0, alpha)


def test_literal_pairing_j1_residual():
    # y_3 y_1 - q^-2 y_1 y_3 with empty right-hand sum leaves
    # alpha^2 (q^4 - q^3) d1 d3 as the residual
    reports = check_reduced_symplectic(LITERAL_OFFSET, 1)
    rep = reports[0]
    assert not rep["holds"]
    want = poly((d_code(1), d_code(3)), QScalar.from_q_power(4) - QScalar.from_q_power(3))
    assert rep["residual"] == want


def test_literal_pairing_alpha_scaling():
    # LHS is quadratic in the y's, so alpha enters the j=1 residual squared
    reports = check_reduced_symplectic(LITERAL_OFFSET, 2)
    want = poly(
        (d_code(1), d_code(3)),
        (QScalar.from_q_power(4) - QScalar.from_q_power(3)) * 4,
    )
    assert reports[0]["residual"] == want


def test_literal_pairing_vanishes_at_q_one():
    for rep in check_reduced_symplectic(LITERAL_OFFSET, 1):
        assert all(sum(c.terms.values(), GaussRat(0)).is_zero()
                   for c in rep["residual"].terms.values()), rep["name"]


def test_alternative_pairing_j1_residual():
    # y_6 y_1 - q^-2 y_1 y_6 = alpha q (X3 d3 - q^-2 d3 X3) = -alpha q^-1
    reports = check_reduced_symplectic(ALTERNATIVE_OFFSET, 1)
    rep = reports[0]
    assert not rep["holds"]
    assert rep["residual"] == poly((), -Q_INV)


def test_alternative_pairing_runs_all_six():
    reports = check_reduced_symplectic(ALTERNATIVE_OFFSET, 1)
    assert len(reports) == 6
    assert all(set(r) == {"name", "holds", "residual"} for r in reports)
    # partner 4 - j leaves 1..6 from j = 4 on, so those j are not run
    literal = check_reduced_symplectic(LITERAL_OFFSET, 1)
    assert [r["name"] for r in literal] == [
        f"partner 4-j: j={j} partner={4 - j}" for j in (1, 2, 3)
    ]


# ------------------------------------------------------------ serialization

def test_word_to_str():
    assert word_to_str(()) == "1"
    assert word_to_str((x_code(1), x_code(1), x_code(3), d_code(2))) == "X1^2 X3 d2"


def test_poly_to_json_canonical():
    p = poly((x_code(1),), Q) + poly((), GaussRat(0, 1))
    js = p.to_json()
    assert js == [
        {"word": "1", "coeff": [[0, 0, 1, 1, 1]]},
        {"word": "X1", "coeff": [[1, 1, 1, 0, 1]]},
    ]
