"""Building and scoring a stack of states gives every state the bits of
building and scoring it alone.

The reference below is an inline copy of the one-state arithmetic the
scoring layer used before it gained a leading state axis: one engine per
state, the pair weights of each alpha at a scalar exponent, one rotation of
the observables into the eigenbasis and one ``einsum`` each for I and J; for
the qubit oracle, the Bloch form, its ``eigh`` and the direct re-evaluation
of the minimizing basis; for a state's spectrum, ``eigh``, the canonical
basis of each degenerate eigenspace and the eigenvector phases of one matrix. Every comparison is bit for bit (the sign of a zero
included), never within a tolerance.
"""

import math

import numpy as np
import pytest

from skewunc import cli, sweeps
from skewunc.bounds import heisenberg_type_checks, memory_bounds
from skewunc.correlation import DeficitEvaluator, brute_force_D_qubit
from skewunc.errors import NumericalConsistencyError, ShapeError, ValidationError
from skewunc.linalg import (
    DEGENERACY_TOL,
    BipartiteDensityMatrix,
    DensityMatrix,
    _canonical_eigenspace,
    clipped_spectrum,
    partial_trace,
    powered_spectrum,
)
from skewunc.skew import (
    PAIR_DEGENERACY_TOL,
    SkewEngine,
    compat_terms,
    embedded,
    engine,
    uncertainty_U,
)
from skewunc.states import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    pauli,
    pauli_basis,
    random_densities,
    random_density,
    random_hermitian,
    random_unitary,
    werner_isotropic,
    werner_swap,
)

ALPHAS = (0.0, 0.37, 0.5, 1.0)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _same_bits(a, b) -> bool:
    return np.array_equal(_bits(a), _bits(b))


def _one_state_weights(rho, alpha):
    """I and J pair weights of one state at one alpha."""
    lam = clipped_spectrum(rho)
    avg = 0.5 * (lam[:, None] + lam[None, :])
    scale = max(float(lam[-1]), np.finfo(float).tiny)
    degenerate = np.abs(lam[:, None] - lam[None, :]) <= PAIR_DEGENERACY_TOL * scale
    cross = powered_spectrum(lam, alpha)[:, None] * powered_spectrum(lam, 1.0 - alpha)[None, :]
    cross = 0.5 * (cross + cross.T)
    w_i = avg - cross
    np.copyto(w_i, 0.0, where=degenerate)
    return w_i, avg + cross


def _one_state_scores(rho, hs, alphas):
    """(I, J, U) of each observable of ``hs`` at each alpha, one state alone."""
    w = [_one_state_weights(rho, alpha) for alpha in alphas]
    w_i, w_j = np.stack([a for a, _ in w]), np.stack([b for _, b in w])
    lam, v = clipped_spectrum(rho), rho.spectral().eigenvectors
    ht = v.conj().T @ hs @ v
    mean = np.sum(lam * np.diagonal(ht, axis1=1, axis2=2).real, axis=1)
    hc = ht - mean[:, None, None] * np.eye(rho.dim)
    i_raw = np.einsum('ajk,njk->na', w_i, ht.real**2 + ht.imag**2)
    j_raw = np.einsum('ajk,njk->na', w_j, hc.real**2 + hc.imag**2)
    out = []
    for i_row, j_row in zip(i_raw, j_raw):
        row = []
        for i, j in zip(i_row, j_row):
            i, j = max(float(i), 0.0), max(float(j), 0.0)
            row.append((i, j, float(np.sqrt(i * j))))
        out.append(row)
    return out


def _one_state_qubit_d(rho, alpha):
    """The qubit oracle of one state: lambda_min of the Bloch form, checked
    and returned through the direct deficit of its minimizing basis."""
    d_b, dim = rho.d_B, rho.dim
    red = rho.reduced()
    (w_ab, _), (w_a, _) = _one_state_weights(rho, alpha), _one_state_weights(red, alpha)
    u, ua = rho.spectral().eigenvectors, red.spectral().eigenvectors
    paulis = np.stack([pauli(axis).mat for axis in "xyz"])
    st = np.einsum('ja,iab,bk->ijk', u.conj().T, embedded(paulis, d_b), u)
    q_ab = np.einsum('jk,ijk,ljk->il', w_ab, st, st.conj()).real
    st_a = np.einsum('ja,iab,bk->ijk', ua.conj().T, paulis, ua)
    q_a = np.einsum('jk,ijk,ljk->il', w_a, st_a, st_a.conj()).real
    q = q_ab - q_a
    lowest, vecs = np.linalg.eigh(0.5 * (q + q.T))
    n = vecs[:, 0]
    theta = 0.5 * np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    ct, s, ph = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    v = np.stack([np.stack([ct + 0j, ph * s]), np.stack([-s / ph, ct + 0j])])
    b = (v.conj() @ np.ascontiguousarray(u.reshape(2, d_b * dim))).reshape(2, d_b, dim)
    ht = np.matmul(b.conj().transpose(0, 2, 1), b)
    i_ab = (ht.real**2 + ht.imag**2).reshape(2, -1) @ w_ab.ravel()
    t = v @ ua.conj()
    qq = t.real**2 + t.imag**2
    direct = float((i_ab - ((qq @ w_a) * qq).sum(axis=1)).sum())
    assert abs(direct - 0.5 * float(lowest[0])) <= 1e-9
    return max(direct, 0.0)


def _states(d):
    """Full-rank, rank-deficient and (at d = 4) degenerate states of dimension d."""
    out = [random_density(EnsembleSpec("full_rank", d, 401), index=i) for i in range(3)]
    out += [random_density(EnsembleSpec("fixed_rank", d, 402, rank=d - 1), index=i)
            for i in range(2)]
    out.append(random_density(EnsembleSpec("pure", d, 403)))
    if d == 4:
        out += [werner_swap(0.5), werner_swap(-1.0), werner_isotropic(1.0)]
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_scoring_has_the_bits_of_one_state_scoring(d):
    rhos = _states(d)
    shared = np.stack([random_hermitian(d, 404, index=k).mat for k in range(3)])
    per_state = np.stack([[random_hermitian(d, 405, index=2 * i + k).mat for k in range(2)]
                          for i in range(len(rhos))])
    eng = SkewEngine(*rhos)
    for alphas in (ALPHAS, *((a,) for a in ALPHAS)):
        for hs, pick in ((shared, lambda i: shared), (per_state, lambda i: per_state[i])):
            scored = eng.stacked_pairs(hs, alphas)
            assert all(x.shape == (len(rhos), len(pick(0)), len(alphas)) for x in scored)
            for i, rho in enumerate(rhos):
                expected = _one_state_scores(rho, pick(i), alphas)
                assert _same_bits(np.stack([x[i] for x in scored], -1), expected)
                alone = engine(rho).stacked_pairs(pick(i), alphas)
                assert all(_same_bits(x[i], y) for x, y in zip(scored, alone))


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_stacked_qubit_oracle_has_the_bits_of_one_state_oracle(d_b):
    rhos = [random_density(EnsembleSpec("full_rank", (2, d_b), 406), index=i) for i in range(3)]
    rhos += [random_density(EnsembleSpec("fixed_rank", (2, d_b), 407, rank=2), index=i)
             for i in range(2)]
    rhos.append(random_density(EnsembleSpec("classical_quantum", (2, d_b), 408)))
    if d_b == 2:
        rhos += [werner_swap(0.5), werner_swap(-1.0), werner_isotropic(1.0)]
    for alpha in ALPHAS:
        stacked = brute_force_D_qubit(rhos, alpha)
        expected = [_one_state_qubit_d(rho, alpha) for rho in rhos]
        assert _same_bits(stacked, expected)
        assert _same_bits(stacked, [brute_force_D_qubit(rho, alpha) for rho in rhos])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_heisenberg_checks_equal_one_state_checks(d):
    rhos = _states(d)
    rs = [random_hermitian(d, 409, index=i) for i in range(len(rhos))]
    ss = [random_hermitian(d, 410, index=i) for i in range(len(rhos))]
    stacked = heisenberg_type_checks(rhos, rs, ss, ALPHAS)
    assert stacked == [heisenberg_type_checks(rho, r, s, ALPHAS)
                       for rho, r, s in zip(rhos, rs, ss)]


@pytest.mark.parametrize("d_b", [2, 3])
def test_stacked_memory_bounds_equal_one_state_bounds(d_b):
    rhos = [random_density(EnsembleSpec("full_rank", (2, d_b), 411), index=i) for i in range(4)]
    phi, psi = pauli_basis("x"), pauli_basis("y")
    for alpha in ALPHAS:
        d_values = brute_force_D_qubit(rhos, alpha)
        stacked = memory_bounds(rhos, phi, psi, alpha, d_values)
        assert stacked == [memory_bounds(rho, phi, psi, alpha, d)
                           for rho, d in zip(rhos, d_values)]
        reduced = [rho.reduced() for rho in rhos]
        assert compat_terms(reduced, phi.projector_stack, psi.projector_stack, alpha) == [
            compat_terms(red, phi.projector_stack, psi.projector_stack, alpha)
            for red in reduced]


def _deficit_bits(scored) -> list[float]:
    """``basis_deficit`` pairs flattened to their floats, totals first."""
    return [[total, *per_k] for total, per_k in scored]


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 2)])
def test_stacked_deficits_have_the_bits_of_one_state_deficits(d_a, d_b):
    rhos = [random_density(EnsembleSpec("full_rank", (d_a, d_b), 414), index=i)
            for i in range(3)]
    rhos.append(random_density(EnsembleSpec("classical_quantum", (d_a, d_b), 415)))
    shared = random_unitary(d_a, 416)
    per_state = np.stack([random_unitary(d_a, 417, index=i) for i in range(len(rhos))])
    for alpha in ALPHAS:
        ev = DeficitEvaluator(rhos, alpha)
        alone = [DeficitEvaluator(rho, alpha) for rho in rhos]
        # rows that every state shares: a (k, d) stack, or one (d,) vector
        for vectors, rows in ((shared.T, d_a), (shared[:, 0], 1)):
            got = ev.vector_deficits(vectors)
            assert got.shape == (len(rhos), rows)
            assert _same_bits(got, [one.vector_deficits(vectors) for one in alone])
        assert _same_bits(ev.vector_deficits(per_state.swapaxes(-1, -2)),
                          [one.vector_deficits(u.T) for one, u in zip(alone, per_state)])
        assert _same_bits(_deficit_bits(ev.basis_deficit(shared)),
                          _deficit_bits(one.basis_deficit(shared) for one in alone))
        one_by_one = [one.basis_deficit(u) for one, u in zip(alone, per_state)]
        assert _same_bits(_deficit_bits(ev.basis_deficit(per_state)), _deficit_bits(one_by_one))
        # a stack of one state answers as a stack
        lone = DeficitEvaluator(rhos[:1], alpha).basis_deficit(per_state[:1])
        assert _same_bits(_deficit_bits(lone), _deficit_bits(one_by_one[:1]))


def test_a_negative_deficit_raises_for_the_first_state_that_has_one():
    rhos = [random_density(EnsembleSpec("full_rank", (2, 2), 418), index=i) for i in range(3)]
    u = random_unitary(2, 419)
    ev = DeficitEvaluator(rhos, 0.3)
    bent = np.array(ev._w_a)
    bent[1] += 1.0 + np.arange(4).reshape(2, 2)   # states 1 and 2 turn negative
    bent[2] += 2.0
    ev._w_a = bent
    alone = DeficitEvaluator(rhos[1], 0.3)
    alone._w_a = bent[1]
    with pytest.raises(NumericalConsistencyError) as stacked:
        ev.basis_deficit(u)
    with pytest.raises(NumericalConsistencyError) as single:
        alone.basis_deficit(u)
    assert str(stacked.value) == str(single.value)
    assert str(stacked.value).startswith("deficit -")


def _one_state_eig(mat):
    """The eigendecomposition of one matrix: ``eigh``, the canonical basis of
    each degenerate eigenspace, then the phase of each eigenvector."""
    w, v = np.linalg.eigh(mat)
    n = len(w)
    gtol = DEGENERACY_TOL * max(float(np.max(np.abs(w))), 1.0)
    v = v.copy()
    i = 0
    while i < n:
        j = i + 1
        while j < n and w[j] - w[j - 1] <= gtol:
            j += 1
        if j - i > 1:
            v[:, i:j] = _canonical_eigenspace(v[:, i:j])
        i = j
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
    safe = np.abs(pivots)
    safe[safe == 0] = 1.0
    return w, v * (pivots.conj() / safe)


def _assert_same_states(stacked, alone):
    """Matrices, eigenvalues, eigenvectors and (for bipartite states) the
    reduced states of two lists of states agree bit for bit, and with the
    one-state eigendecomposition."""
    assert len(stacked) == len(alone)
    for got, want in zip(stacked, alone):
        assert type(got) is type(want)
        pairs = [(got, want)]
        if isinstance(got, BipartiteDensityMatrix):
            assert (got.d_A, got.d_B) == (want.d_A, want.d_B)
            pairs.append((got.reduced(), want.reduced()))
        for a, b in pairs:
            w, v = _one_state_eig(b.mat)
            assert _same_bits(w, b.spectral().eigenvalues)
            assert _same_bits(v.view(np.float64), b.spectral().eigenvectors.view(np.float64))
            assert _same_bits(a.mat.view(np.float64), b.mat.view(np.float64))
            assert _same_bits(a.spectral().eigenvalues, b.spectral().eigenvalues)
            assert _same_bits(a.spectral().eigenvectors.view(np.float64),
                              b.spectral().eigenvectors.view(np.float64))
            assert not a.mat.flags.writeable and not a.spectral().eigenvectors.flags.writeable


_FACTORS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 6: (2, 3)}


@pytest.mark.parametrize("kind", ["full_rank", "pure", "fixed_rank", "product"])
@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_stacked_draws_have_the_bits_of_one_at_a_time_draws(kind, d):
    rank = {"fixed_rank": max(1, d - 1)}.get(kind)
    specs = [EnsembleSpec(kind, _FACTORS[d], 414, rank=rank)]
    if kind != "product":
        specs.append(EnsembleSpec(kind, d, 415, rank=rank))
    for spec in specs:
        indices = (0, 3, 1, 7, 2, 5)
        stacked = random_densities(spec, indices)
        if spec.bipartite:
            partial_trace(stacked, "A")   # the reductions as one stack
        _assert_same_states(stacked, [random_density(spec, i) for i in indices])


@pytest.mark.parametrize("family, lo, n", [(werner_swap, -1.0, 201),
                                           (werner_isotropic, 0.0, 101)])
def test_stacked_family_grids_have_the_bits_of_one_at_a_time_builds(family, lo, n):
    ps = sweeps.p_grid(lo, 1.0, 0.01)
    assert len(ps) == n
    stacked = family(ps)
    partial_trace(stacked, "A")
    _assert_same_states(stacked, [family(p) for p in ps])


def test_degenerate_and_one_state_stacks_have_the_bits_of_one_state():
    for d in (2, 3, 4):
        mixed = np.eye(d) / d
        full = random_density(EnsembleSpec("full_rank", d, 416)).mat
        _assert_same_states(DensityMatrix.stack([mixed, full, mixed]),
                            [DensityMatrix(mixed), DensityMatrix(full), DensityMatrix(mixed)])
    stacked = werner_swap([-1.0, 0.5])
    partial_trace(stacked, "A")
    _assert_same_states(stacked, [werner_swap(-1.0), werner_swap(0.5)])
    spec = EnsembleSpec("full_rank", (2, 3), 417)
    [one] = random_densities(spec, [5])
    _assert_same_states([one], [random_density(spec, 5)])
    # a stack of one has the bits of a lone build, and its reduction those
    # of the one-state trace
    _assert_same_states([one], [BipartiteDensityMatrix(one.mat, 2, 3)])
    _assert_same_states(DensityMatrix.stack([one.mat]), [DensityMatrix(one.mat)])
    traced = np.einsum('ijkj->ik', one.mat.reshape(2, 3, 2, 3))
    assert _same_bits(one.reduced().mat.view(np.float64), traced.view(np.float64))
    assert partial_trace([one], "A") == (one.reduced(),)
    assert partial_trace(one, "A") is one.reduced()


_ONE_STATE_TRACE = {"A": 'ijkj->ik', "B": 'ijil->jl'}


@pytest.mark.parametrize("keep", ["A", "B"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 2)], ids=lambda d: "%dx%d" % d)
def test_stacked_partial_trace_has_the_bits_of_lone_partial_traces(dims, keep):
    # every ensemble kind, a rank-deficient one included; the lone states
    # are fresh draws, so no reduction is shared through a cache
    for spec in [EnsembleSpec(kind, dims, 418, rank=2 if kind == "fixed_rank" else None)
                 for kind in ENSEMBLE_KINDS]:
        indices = (0, 4, 1, 6)
        stacked = partial_trace(random_densities(spec, indices), keep)
        joints = [random_density(spec, i) for i in indices]
        lone = [partial_trace(joint, keep) for joint in joints]
        assert type(stacked) is tuple and len(stacked) == len(indices)
        for got, want, joint in zip(stacked, lone, joints):
            traced = np.einsum(_ONE_STATE_TRACE[keep], joint.mat.reshape(dims * 2))
            assert np.array_equal(got.mat, want.mat) and np.array_equal(got.mat, traced)
        _assert_same_states(list(stacked), lone)


@pytest.mark.parametrize("example_id", [1, 3])
def test_sweep_rows_equal_sweep_row_on_the_full_grid(example_id):
    ps = sweeps.p_grid(*sweeps.EXAMPLE_P_RANGES[example_id], 0.01)
    rows = sweeps.sweep_rows(example_id, ps, ALPHAS, "grid")
    assert len(rows) == len(ps) * len(ALPHAS)
    one_by_one = [sweeps.sweep_row(example_id, p, alpha, "grid")
                  for p in ps for alpha in ALPHAS]
    assert rows == one_by_one
    for got, want in zip(rows, one_by_one):
        assert _same_bits([v for v in got.values()], [v for v in want.values()])


def test_a_value_below_the_noise_floor_raises_for_the_first_state_that_has_one():
    rhos = [random_density(EnsembleSpec("full_rank", 3, 412), index=i) for i in range(3)]
    h = random_hermitian(3, 413).mat
    eng = SkewEngine(*rhos)
    w_i, w_j = eng.weights((0.3,))
    bent = np.array(w_i)
    bent[1:] = -bent[1:] - 1e-3   # states 1 and 2 turn negative
    eng._weights[(0.3,)] = (bent, w_j)
    alone = SkewEngine(rhos[1])
    alone._weights[(0.3,)] = (bent[1], w_j[1])
    with pytest.raises(NumericalConsistencyError) as stacked:
        eng.stacked_pairs(h[None], (0.3,))
    with pytest.raises(NumericalConsistencyError) as single:
        alone.pair(h, 0.3)
    assert str(stacked.value) == str(single.value)
    assert str(stacked.value).startswith("skew information = -")


def test_a_bad_dual_is_named_before_a_later_bad_skew_information():
    """The first bad value in (state, observable, alpha) order is named: here
    J of state 1 at alpha 0.3, before I of state 1 at 0.6 and I of state 2."""
    rhos = [random_density(EnsembleSpec("full_rank", 3, 412), index=i) for i in range(3)]
    h = random_hermitian(3, 413).mat
    alphas = (0.3, 0.6)
    eng = SkewEngine(*rhos)
    bent_i, bent_j = (np.array(w) for w in eng.weights(alphas))
    bent_j[1, 0] = -bent_j[1, 0] - 1e-3
    bent_i[1, 1] = -bent_i[1, 1] - 1e-3
    bent_i[2] = -bent_i[2] - 1e-3
    eng._weights[alphas] = (bent_i, bent_j)
    alone = SkewEngine(rhos[1])
    alone._weights[alphas] = (bent_i[1], bent_j[1])
    with pytest.raises(NumericalConsistencyError) as stacked:
        eng.stacked_pairs(h[None], alphas)
    with pytest.raises(NumericalConsistencyError) as single:
        alone.pairs(h, alphas)
    assert str(stacked.value) == str(single.value)
    assert str(stacked.value).startswith("dual skew information = -")


def test_stacks_need_states_of_one_shape():
    with pytest.raises(ShapeError):
        SkewEngine(random_density(EnsembleSpec("full_rank", 2, 1)),
                   random_density(EnsembleSpec("full_rank", 3, 1)))
    with pytest.raises(ShapeError):
        SkewEngine()
    with pytest.raises(ShapeError):
        brute_force_D_qubit([random_density(EnsembleSpec("full_rank", (2, 4), 1)),
                             random_density(EnsembleSpec("full_rank", (4, 2), 1))], 0.3)
    rho = random_density(EnsembleSpec("full_rank", 2, 1))
    with pytest.raises(ShapeError):
        heisenberg_type_checks([rho, rho], [pauli("x")], [pauli("z")], (0.3,))
    with pytest.raises(ShapeError):
        memory_bounds([werner_swap(0.1)] * 2, pauli_basis("x"), pauli_basis("z"), 0.3, [0.0])
    # one R, S or D for a whole stack
    with pytest.raises(ShapeError):
        heisenberg_type_checks([rho, rho], pauli("x"), [pauli("z")] * 2, (0.3,))
    with pytest.raises(ShapeError):
        heisenberg_type_checks([rho, rho], [pauli("x")] * 2, pauli("z"), (0.3,))
    with pytest.raises(ShapeError):
        heisenberg_type_checks([rho], pauli("x"), pauli("z"), (0.3,))
    for stack in ([werner_swap(0.1)] * 2, [werner_swap(0.1)]):
        with pytest.raises(ShapeError):
            memory_bounds(stack, pauli_basis("x"), pauli_basis("z"), 0.3, 0.1)


# --- alpha validation ----------------------------------------------------------

@pytest.mark.parametrize("alpha", [True, False, "0.5", "x", None, 1j, [0.5]])
def test_alpha_must_be_a_real_number(alpha):
    rho2 = werner_swap(0.3)
    x, z = pauli("x"), pauli("z")
    calls = [
        lambda: uncertainty_U(rho2.reduced(), x, alpha),
        lambda: brute_force_D_qubit(rho2, alpha),
        lambda: brute_force_D_qubit([rho2, werner_swap(0.4)], alpha),
        lambda: heisenberg_type_checks(rho2.reduced(), x, z, (0.2, alpha)),
        lambda: heisenberg_type_checks([rho2.reduced()] * 2, [x] * 2, [z] * 2, (alpha,)),
        lambda: memory_bounds([rho2] * 2, pauli_basis("x"), pauli_basis("z"), alpha, [0, 0]),
        lambda: compat_terms([rho2.reduced()] * 2, pauli_basis("x").projector_stack,
                             pauli_basis("z").projector_stack, alpha),
        lambda: sweeps.sweep_rows(1, (0.1, 0.2), (alpha,), "grid"),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="alpha"):
            call()


def test_numpy_and_integer_alphas_are_accepted():
    rho = werner_swap(0.3)
    assert brute_force_D_qubit(rho, np.float64(0.3)) == brute_force_D_qubit(rho, 0.3)
    assert brute_force_D_qubit(rho, 1) == brute_force_D_qubit(rho, 1.0)
    assert brute_force_D_qubit(rho, np.int64(0)) == brute_force_D_qubit(rho, 0.0)


# --- p grid ends within 1e-12 outside the range ---------------------------------

@pytest.mark.parametrize("example_id, ends, inside", [
    (1, ("-1.0000000000001", "-0.9"), ("-1", "-0.9")),
    (1, ("0.9", "1.0000000000001"), ("0.9", "1")),
    (1, ("1.0000000000001", "1.0000000000001"), ("1", "1")),
    (3, ("-0.0000000000001", "0.1"), ("0", "0.1")),
    (3, ("0.9", "1.0000000000001"), ("0.9", "1")),
    (3, ("1.0000000000001", "1.0000000000001"), ("1", "1")),
])
def test_grid_ends_just_outside_the_range_are_its_ends(tmp_path, capsys, example_id,
                                                       ends, inside):
    outs = []
    for name, (start, stop) in (("edge", ends), ("inside", inside)):
        out = tmp_path / f"{name}.csv"
        assert cli.main(["reproduce", "--example", str(example_id), "--alpha", "0.3",
                         "--p-start", start, "--p-stop", stop, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


@pytest.mark.parametrize("start, stop", [("-1.00000001", "0"), ("0", "1.00000001"),
                                         ("0.5", "0.4")])
def test_grid_ends_further_outside_still_exit_2(tmp_path, capsys, start, stop):
    assert cli.main(["reproduce", "--example", "1", "--p-start", start, "--p-stop", stop,
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "outside the valid range" in capsys.readouterr().err


def test_validate_clamps_both_ends_into_the_range():
    cfg = cli.SweepConfig(example=1, p_start=-1.0000000000001, p_stop=1.0000000000001)
    cfg.validate()
    assert (cfg.p_start, cfg.p_stop) == (-1.0, 1.0)
    assert math.copysign(1.0, cfg.p_start) == -1.0
