"""The per-cell jet builder, the reference for `hilbert._int_jet_rows`.

It reads every entry of the jet block from the same formula as the array
builder, den**(e_piv + |beta|) * prod_j T_j[e_j][beta_j], but one cell at
a time in Python ints, stopping at the first zero factor.  Unlike the
sympy oracle of test_hilbert.py it stays fast at degrees where entries
pass 2^62.  Monomials come from `exponents`, a recursive enumeration of
tuples that shares nothing with the array builder `hilbert._exponents`;
`fat_point_weights` is the multi-index reference for the weights of a
fat point that `testconfig._split_summary` reads off a basis mask.
"""

from collections import Counter

from chowstab.exactcore import _primitive
from chowstab.hilbert import MonomialBasis


def exponents(nvars, total):
    """Exponent tuples of the degree-`total` monomials in `nvars`
    variables, graded lex, descending: the first exponent runs from total
    down to 0, each followed by the exponents of the rest in that order."""
    if nvars == 1:
        return [(total,)]
    return [(e,) + rest for e in range(total, -1, -1)
            for rest in exponents(nvars - 1, total - e)]


def fat_point_weights(q, m, alpha):
    """Weights of O_{m q}, relative to q's weight mu: sum_j (w_j - mu) b_j
    over the multi-indices b on the coordinates j != q.pivot_index with
    |b| < m."""
    i = q.pivot_index
    mu = alpha.weights[i]
    rel = [w - mu for j, w in enumerate(alpha.weights) if j != i]
    return Counter(sum(v * e for v, e in zip(rel, b))
                   for k in range(m) for b in exponents(len(rel), k))


def reference_jet_rows(p, order, basis):
    """Jet rows at p as lists of Python ints, built cell by cell."""
    piv = p.pivot_index
    nums = _primitive(p.coords)
    den = nums.pop(piv)
    d = basis.degree
    tables = []
    for v in nums:
        # T[e][0] = v**e and T[e][b] = e * T[e-1][b-1]
        t = [[1] + [0] * (order - 1)]
        for e in range(1, d + 1):
            t.append([t[-1][0] * v] + [e * x for x in t[-1][:-1]])
        tables.append(t)
    den_pow = [den ** k for k in range(d + 1)]
    cols = [(e[piv], [t[ej] for t, ej in zip(tables, e[:piv] + e[piv + 1:])])
            for e in exponents(basis.n + 1, d)]
    rows = []
    for o in range(order):
        for beta in exponents(basis.n, o):
            row = []
            for e_piv, factors in cols:
                c = 1
                for f, b in zip(factors, beta):
                    c *= f[b]
                    if not c:
                        break
                row.append(c * den_pow[e_piv + o] if c else 0)
            rows.append(row)
    return rows


def reference_jet_matrix(spec):
    """The jet condition matrix of a FatPointSpec as lists of Python ints."""
    basis = MonomialBasis(spec.cycle.ambient.n, spec.degree)
    rows = []
    for p, a in spec.cycle.points:
        rows.extend(reference_jet_rows(p, spec.r * a, basis))
    return rows
