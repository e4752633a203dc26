import pickle

import numpy as np
import pytest

from jcas import scma
from jcas.scma import (
    Codebook,
    CodebookError,
    build_codebook,
    default_codebook,
    factor_graph,
    load_codebook,
    save_codebook,
)
from oracles import balanced_supports_reference


def test_default_codebook_structure():
    cb = default_codebook()
    assert cb.n_users == 6
    assert cb.n_ores == 4
    assert cb.m == 4
    assert cb.d_v == 2
    # d_f * R = d_v * N_u -> 3 * 4 = 2 * 6
    assert [len(users) for users in factor_graph(cb).lambda_r] == [3, 3, 3, 3]


def test_default_codebook_unit_energy():
    cb = default_codebook()
    for mat in cb.matrices:
        energies = np.sum(np.abs(mat) ** 2, axis=0)
        assert np.allclose(energies, 1.0)


def test_supports_are_distinct_when_possible():
    cb = default_codebook()
    sups = {cb.graph.omega_u[u] for u in range(cb.n_users)}
    assert len(sups) == 6  # C(4,2) = 6 distinct supports exist and are used


def test_colliding_users_are_distinguishable():
    """On every ORE the codeword rows of its users must differ as sets."""
    cb = default_codebook()
    graph = factor_graph(cb)
    for r, users in enumerate(graph.lambda_r):
        rows = [tuple(np.round(cb.matrices[u][r], 9)) for u in users]
        assert len(set(rows)) == len(rows)


def test_balanced_irregular_book():
    # d_v * N_u = 2 * 12 = 24, R = 7 -> no integer d_f; loads must be 3 or 4
    cb = build_codebook(12, 7, m=4, d_v=2)
    loads = [len(users) for users in factor_graph(cb).lambda_r]
    assert set(loads) == {3, 4}
    assert cb.max_d_f == 4


def test_balanced_supports_match_the_tuple_greedy():
    """The array greedy picks the supports the tuple-keyed greedy picks, on
    every (n_users, n_ores, d_v) with n_ores <= 8 and n_users <= 40,
    including the triples it leaves unbalanced."""
    for n_ores in range(1, 9):
        for d_v in range(1, n_ores + 1):
            for n_users in range(1, 41):
                assert scma._balanced_supports(n_users, n_ores, d_v) == (
                    balanced_supports_reference(n_users, n_ores, d_v)
                ), (n_users, n_ores, d_v)


def test_every_triple_builds_its_codebook():
    """A fixed sample of the (n_users <= 120, n_ores <= 10, d_v <= n_ores)
    grid, plus triples the greedy alone leaves unbalanced: each book builds
    (Codebook checks the loads), and a balanced greedy pick is kept as is."""
    grid = [
        (n_users, n_ores, d_v)
        for n_users in range(1, 121)
        for n_ores in range(1, 11)
        for d_v in range(1, n_ores + 1)
    ]
    picks = np.random.default_rng(0).choice(len(grid), size=150, replace=False)
    repaired = 0
    for n_users, n_ores, d_v in [grid[i] for i in picks] + [(40, 7, 3), (41, 9, 2)]:
        greedy = scma._balanced_supports(n_users, n_ores, d_v)
        cb = build_codebook(n_users, n_ores, m=2, d_v=d_v)
        loads = np.bincount(np.ravel(greedy), minlength=n_ores)
        if loads.max() - loads.min() > 1:
            repaired += 1
        else:
            assert list(cb.graph.omega_u) == greedy, (n_users, n_ores, d_v)
    assert repaired >= 6  # the sample reaches the repair pass


def test_support_reuse_allowed_when_needed():
    cb = build_codebook(2, 2, m=2, d_v=2)  # only one possible support
    assert cb.graph.omega_u[0] == cb.graph.omega_u[1]


def test_build_rejects_impossible_dv():
    with pytest.raises(CodebookError):
        build_codebook(4, 3, m=4, d_v=5)


@pytest.mark.parametrize("m", [0, 1])
def test_build_rejects_fewer_than_two_codewords(m):
    with pytest.raises(CodebookError, match="M >= 2"):
        build_codebook(6, 4, m=m, d_v=2)


def test_load_rejects_one_codeword_book(tmp_path):
    """A structurally regular book with M = 1 has no information per symbol;
    the constructor rejects it, so loading it fails."""
    path = tmp_path / "cb.txt"
    path.write_text("scma 2 2 1 2\n0.7+0j 0.7+0j\n0.7+0j 0.7j\n")
    with pytest.raises(CodebookError, match="M >= 2"):
        load_codebook(path)


def test_validate_catches_support_mismatch():
    cb = default_codebook()
    mats = [m.copy() for m in cb.matrices]
    mats[0][cb.graph.omega_u[0][0], 1] = 0.0  # kill one entry of one codeword
    with pytest.raises(CodebookError):
        Codebook(mats)


def test_validate_catches_unbalanced_loads():
    # two users on ORE 0+1, none on 2: loads (2,2,0) with R=3, d_v=2
    amp = 1 / np.sqrt(2)
    mat = np.zeros((3, 2), dtype=complex)
    mat[0] = [amp, -amp]
    mat[1] = [amp, -amp]
    with pytest.raises(CodebookError):
        Codebook([mat, mat * 1j])


def _book(*supports, m=2, n_ores=3):
    """One (n_ores, m) matrix per user, nonzero on its support rows."""
    mats = []
    for u, sup in enumerate(supports):
        mat = np.zeros((n_ores, m), dtype=complex)
        mat[list(sup)] = np.exp(1j * (np.arange(m) + u))
        mats.append(mat)
    return mats


def _codeword_entry(value, user=0):
    """The default book with one entry of user's codeword 1 set to value."""
    cb = default_codebook()
    mats = [m.copy() for m in cb.matrices]
    mats[user][cb.graph.omega_u[user][0], 1] = value
    return mats


@pytest.mark.parametrize(
    "mats, match",
    [
        (_book((0, 1), (1, 2), (0, 2), m=1), r"need M >= 2 codewords per user, got 1"),
        (_book((), (0, 1)), r"user 0: codewords have no nonzero rows"),
        (_book((0, 1), ()), r"user 1: support size 0 != d_v 2"),
        (_codeword_entry(0.0), r"user 0 codeword 1: nonzero rows .* do not match the user support"),
        (
            _codeword_entry(0.0, user=3),
            r"^user 3 codeword 1: nonzero rows \(3,\) do not match the user support \(1, 3\)$",
        ),
        (_codeword_entry(complex("nan+0j")), r"user 0 codeword 1: entry \(nan\+0j\) is not finite"),
        (_codeword_entry(complex("inf-1j")), r"user 0 codeword 1: entry \(inf-1j\) is not finite"),
        (_codeword_entry(complex("1e200+0j")), r"user 0 codeword 1: energy inf is not finite"),
        (_book((0, 1), (1, 2), (0,)), r"user 2: support size 1 != d_v 2"),
        (_book((0, 1), (0, 1), (0, 1)), r"ORE 0: used by 3 users, expected d_f = 2"),
        (_book((0, 1), (0, 1)), r"ORE 2: load 0 outside balanced range \[1, 2\]"),
    ],
    ids=["one-codeword", "empty-support", "empty-later-support", "codeword-support-mismatch",
         "codeword-support-mismatch-message", "nan-entry", "inf-entry", "huge-entry",
         "unequal-d_v", "unbalanced-regular", "unbalanced-irregular"],
)
def test_constructor_rejects_invalid_book(mats, match):
    with pytest.raises(CodebookError, match=match):
        Codebook(mats)


def test_factor_graph_adjacency_consistent():
    cb = default_codebook()
    g = factor_graph(cb)
    for u in range(cb.n_users):
        assert g.omega_u[u] == tuple(np.flatnonzero(cb.matrices[u].any(axis=1)))
        assert all(type(r) is int for r in g.omega_u[u])
        for r in g.omega_u[u]:
            assert u in g.lambda_r[r]
    for r, users in enumerate(g.lambda_r):
        for u in users:
            assert r in g.omega_u[u]


def test_codebook_roundtrip(tmp_path):
    cb = default_codebook()
    path = tmp_path / "cb.txt"
    save_codebook(path, cb)
    back = load_codebook(path)
    assert back.n_users == cb.n_users
    for a, b in zip(back.matrices, cb.matrices):
        assert np.array_equal(a, b)


def test_codebook_load_errors(tmp_path):
    path = tmp_path / "cb.txt"
    path.write_text("")
    with pytest.raises(CodebookError):
        load_codebook(path)
    path.write_text("scma 2 2 2 2\n1+0j 1+0j\n")  # missing lines
    with pytest.raises(CodebookError):
        load_codebook(path)
    path.write_text("wrong header\n")
    with pytest.raises(CodebookError):
        load_codebook(path)


@pytest.mark.parametrize("header", ["scma 6 -1 4 2", "scma 0 4 4 2", "scma 6 4 4 0"])
def test_load_rejects_header_counts_below_one(tmp_path, header):
    path = tmp_path / "cb.txt"
    path.write_text(f"{header}\n0.5+0j 0.5+0j 0.5+0j 0.5+0j\n")
    with pytest.raises(CodebookError, match=rf"{path}: header counts must be >= 1"):
        load_codebook(path)


def test_factor_graph_is_built_once_per_book():
    cb = build_codebook(12, 7, m=4, d_v=2)
    assert factor_graph(cb) is factor_graph(cb)
    assert factor_graph(default_codebook()) is not factor_graph(cb)


def test_codebook_holds_read_only_copies():
    src = [m.copy() for m in default_codebook().matrices]
    cb = Codebook(src)
    graph = factor_graph(cb)
    src[0][:] = 0  # the caller's arrays are not the book's
    assert cb.matrices.shape == (6, 4, 4) and not cb.matrices.flags.writeable
    assert np.any(cb.matrices[0] != 0)
    with pytest.raises(ValueError):
        cb.matrices[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        cb.matrices[0] = src[0]
    assert factor_graph(cb) is graph


def test_pickled_codebook_stays_read_only():
    """A book sent to a pool worker keeps its read-only matrices and graph."""
    cb = build_codebook(12, 7, m=4, d_v=2)
    back = pickle.loads(pickle.dumps(cb))
    assert all(not m.flags.writeable for m in back.matrices)
    assert all(np.array_equal(a, b) for a, b in zip(back.matrices, cb.matrices))
    assert factor_graph(back) == factor_graph(cb)
