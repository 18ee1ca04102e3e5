"""Bound checkers and the closed-form example expressions."""

import numpy as np
import pytest

from skewunc.bounds import (
    example_closed_forms,
    heisenberg_type_check,
    heisenberg_type_checks,
    memory_bounds,
    product_bound_check,
    sum_bound_check,
)
from skewunc.correlation import brute_force_D_qubit
from skewunc.errors import ShapeError, ValidationError
from skewunc.linalg import DensityMatrix, HermitianOperator, kron
from skewunc.skew import ProjectiveBasis
from skewunc.states import (
    EnsembleSpec,
    example2_state,
    pauli,
    pauli_basis,
    random_densities,
    random_density,
    random_hermitian,
    werner_isotropic,
    werner_swap,
)


# --- memoryless bound --------------------------------------------------------

def test_heisenberg_commuting_observables():
    rho = random_density(EnsembleSpec("full_rank", 2, 1))
    rep = heisenberg_type_check(rho, pauli("z"), pauli("z"), 0.5)
    assert rep.rhs == 0.0
    assert rep.holds


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_heisenberg_alpha_endpoints_trivial_rhs(alpha):
    rho = random_density(EnsembleSpec("full_rank", 2, 2))
    rep = heisenberg_type_check(rho, pauli("x"), pauli("z"), alpha)
    assert rep.rhs == 0.0
    assert rep.holds


def test_heisenberg_random_sweep():
    for i in range(100):
        d = (2, 3, 4)[i % 3]
        rho = random_density(EnsembleSpec("full_rank", d, 3), index=i)
        r = random_hermitian(d, 4, index=i)
        s = random_hermitian(d, 5, index=i)
        for alpha in (0.1, 0.5, 0.9):
            rep = heisenberg_type_check(rho, r, s, alpha)
            assert rep.holds, f"violation at sample {i}, alpha {alpha}"
            assert rep.slack >= -1e-9


def test_heisenberg_report_reconstruction():
    rho = random_density(EnsembleSpec("full_rank", 2, 6))
    rep = heisenberg_type_check(rho, pauli("x"), pauli("y"), 0.3)
    rebuilt = rep.terms["alpha_factor"] * rep.terms["commutator_trace_abs_sq"]
    assert rep.rhs == pytest.approx(rebuilt, abs=1e-10)
    assert rep.lhs == pytest.approx(
        rep.terms["u_alpha_R"] * rep.terms["u_alpha_S"], abs=1e-10)
    assert rep.slack == rep.lhs - rep.rhs
    assert rep.holds == (rep.slack >= -rep.tolerance)


@pytest.mark.parametrize("dims", [(4, 2, 2), (2, 2, 4)],
                         ids=["state_vs_observables", "r_vs_s"])
def test_heisenberg_rejects_mismatched_dimensions(dims):
    d_rho, d_r, d_s = dims
    rho = DensityMatrix(np.eye(d_rho) / d_rho)
    r, s = random_hermitian(d_r, 7), random_hermitian(d_s, 8)
    with pytest.raises(ShapeError):
        heisenberg_type_check(rho, r, s, 0.3)
    with pytest.raises(ShapeError):
        heisenberg_type_checks(rho, r, s, (0.2, 0.7))


# the endpoints, the scalar-sqrt exponent 0.5, and a repeated alpha
_ALPHAS = (0.0, 0.1, 0.37, 0.5, 0.5, 0.8, 1.0)


def _one_observable_scores(eng, h, alphas):
    """I and J of one observable at each alpha, by the one-observable
    arithmetic (one rotation, one einsum each), clipped as the engine clips."""
    w_i, w_j = eng.weights(alphas)
    v = eng.eigenvectors
    ht = v.conj().T @ h @ v
    mean = float(np.sum(eng.eigenvalues * ht.diagonal().real))
    hc = ht - mean * np.eye(eng.dim)
    i_raw = np.einsum('ajk,jk->a', w_i, ht.real**2 + ht.imag**2)
    j_raw = np.einsum('ajk,jk->a', w_j, hc.real**2 + hc.imag**2)
    return [(max(float(i), 0.0), max(float(j), 0.0)) for i, j in zip(i_raw, j_raw)]


def _assert_stack_bit_equal(eng, hs, alphas):
    i, j, u = eng.stacked_pairs(hs, alphas)
    assert i.shape == j.shape == u.shape == (len(hs), len(alphas))
    for h, *scores in zip(hs, i.tolist(), j.tolist(), u.tolist()):
        pairs = eng.pairs(h, alphas)
        assert [(p.i_alpha, p.j_alpha, p.u_alpha) for p in pairs] == list(zip(*scores))
        for i_k, j_k, u_k, (i_one, j_one) in zip(*scores, _one_observable_scores(eng, h, alphas)):
            assert (i_k, j_k) == (i_one, j_one)
            assert u_k == float(np.sqrt(i_one * j_one))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kind", ["full_rank", "fixed_rank", "pure"])
def test_multi_alpha_scoring_equals_one_alpha_scoring(kind, d):
    from skewunc.skew import (
        SkewEngine,
        embedded as skew_embedded,
        skew_information_I,
        skew_information_J,
        uncertainty_U,
    )

    rank = d - 1 if kind == "fixed_rank" else None
    for i in range(4):
        rho = random_density(EnsembleSpec(kind, d, 71, rank=rank), index=i)
        r = random_hermitian(d, 72, index=i)
        s = random_hermitian(d, 73, index=i)
        # bit-equal: the stacked weights and the batched einsum change no bit
        stacked = SkewEngine(rho).pairs(r.mat, _ALPHAS)
        for alpha, pair in zip(_ALPHAS, stacked):
            assert pair == SkewEngine(rho).pair(r.mat, alpha)
            assert pair.i_alpha == skew_information_I(rho, r, alpha)
            assert pair.j_alpha == skew_information_J(rho, r, alpha)
            assert pair == uncertainty_U(rho, r, alpha)
        reports = heisenberg_type_checks(rho, r, s, _ALPHAS)
        assert reports == [heisenberg_type_check(rho, r, s, a) for a in _ALPHAS]
        # a stack of observables changes no bit either: the R/S stack, and
        # the embedded Pauli projectors of a 2 x d state
        _assert_stack_bit_equal(SkewEngine(rho), np.stack((r.mat, s.mat)), _ALPHAS)
        rho_ab = random_density(EnsembleSpec(kind, (2, d), 74, rank=rank), index=i)
        bases = [pauli_basis(axis) for axis in "xyz"]
        embedded = np.stack([kron(p, np.eye(d)) for b in bases for p in b.projector_stack])
        assert np.array_equal(embedded, skew_embedded(
            np.concatenate([b.projector_stack for b in bases]), d))
        _assert_stack_bit_equal(SkewEngine(rho_ab), embedded, _ALPHAS)
        _assert_stack_bit_equal(SkewEngine(rho_ab), embedded, (0.3,))


# --- closed forms ------------------------------------------------------------

def test_closed_forms_maximally_mixed_point():
    lhs, rhs = example_closed_forms(1, "product", 0.5, 0.5)
    assert lhs == 0.0 and rhs == 0.0
    lhs, rhs = example_closed_forms(1, "sum", 0.5, 0.2)
    assert lhs == 0.0 and rhs == 0.0


def test_closed_forms_singlet_end():
    lhs, rhs = example_closed_forms(1, "product", -1.0, 0.3)
    assert lhs == pytest.approx(0.25, abs=1e-15)
    assert rhs == pytest.approx(0.25, abs=1e-15)


def test_closed_forms_isotropic_pure_end():
    lhs, rhs = example_closed_forms(3, "sum", 1.0, 0.2)
    assert lhs == pytest.approx(1.0, abs=1e-15)
    assert rhs == pytest.approx(1.0, abs=1e-15)
    lhs, rhs = example_closed_forms(3, "product", 1.0, 0.4)
    assert lhs == pytest.approx(0.25, abs=1e-15)
    assert rhs == pytest.approx(0.25, abs=1e-15)


def test_closed_forms_isotropic_mixed_end_is_zero():
    for side in ("product", "sum"):
        lhs, rhs = example_closed_forms(3, side, 0.0, 0.2)
        assert lhs == 0.0 and rhs == 0.0


def test_closed_forms_range_and_argument_errors():
    with pytest.raises(ValidationError):
        example_closed_forms(1, "product", 1.5, 0.5)
    with pytest.raises(ValidationError):
        example_closed_forms(3, "sum", -0.1, 0.5)
    with pytest.raises(ValidationError):
        example_closed_forms(2, "product", 0.5, 0.5)
    with pytest.raises(ValidationError):
        example_closed_forms(1, "both", 0.5, 0.5)


# --- memory bounds against closed forms --------------------------------------

@pytest.mark.parametrize("p", [-1.0, -0.6, 0.0, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("alpha", [0.2, 0.5])
def test_product_and_sum_match_closed_forms_swap_family(p, alpha):
    rho = werner_swap(p)
    d = brute_force_D_qubit(rho, alpha)
    prod = product_bound_check(rho, pauli_basis("x"), pauli_basis("z"), alpha, d)
    summ = sum_bound_check(rho, pauli_basis("x"), pauli_basis("z"), alpha, d)
    cp = example_closed_forms(1, "product", p, alpha)
    cs = example_closed_forms(1, "sum", p, alpha)
    assert prod.lhs == pytest.approx(cp[0], abs=1e-8)
    assert prod.rhs == pytest.approx(cp[1], abs=1e-8)
    assert summ.lhs == pytest.approx(cs[0], abs=1e-8)
    assert summ.rhs == pytest.approx(cs[1], abs=1e-8)
    assert prod.holds and summ.holds


@pytest.mark.parametrize("p", [0.0, 1 / 3, 0.7, 1.0])
def test_memory_bounds_isotropic_family(p):
    rho = werner_isotropic(p)
    alpha = 0.5
    d = brute_force_D_qubit(rho, alpha)
    prod = product_bound_check(rho, pauli_basis("x"), pauli_basis("z"), alpha, d)
    summ = sum_bound_check(rho, pauli_basis("x"), pauli_basis("z"), alpha, d)
    cp = example_closed_forms(3, "product", p, alpha)
    cs = example_closed_forms(3, "sum", p, alpha)
    assert prod.lhs == pytest.approx(cp[0], abs=1e-8)
    assert prod.rhs == pytest.approx(cp[1], abs=1e-8)
    assert summ.lhs == pytest.approx(cs[0], abs=1e-8)
    assert summ.rhs == pytest.approx(cs[1], abs=1e-8)


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_memory_bounds_are_equalities_for_pure_states_at_the_reduced_eigenbasis(d_b):
    # For a pure state with a qubit A, measured on both sides in the
    # eigenbasis of rho_A, both bounds with memory hold with equality, and
    # D = 1 - tr rho_A^2 at every alpha.
    rhos = random_densities(EnsembleSpec("pure", (2, d_b), 418), range(12))
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        for rho, d in zip(rhos, brute_force_D_qubit(rhos, alpha)):
            rho_a = rho.reduced().mat
            assert abs(d - (1.0 - np.trace(rho_a @ rho_a).real)) <= 1e-12
            basis = ProjectiveBasis(rho.reduced().spectral().eigenvectors)
            prod, summ = memory_bounds(rho, basis, basis, alpha, d)
            assert abs(prod.slack) <= 1e-12 and abs(summ.slack) <= 1e-12


def test_report_terms_reconstruct_rhs():
    rho = werner_isotropic(0.6)
    d = brute_force_D_qubit(rho, 0.3)
    prod = product_bound_check(rho, pauli_basis("x"), pauli_basis("z"), 0.3, d)
    summ = sum_bound_check(rho, pauli_basis("x"), pauli_basis("z"), 0.3, d)
    assert prod.rhs == pytest.approx(
        prod.terms["sum_L_sq"] + prod.terms["D_tilde"] ** 2, abs=1e-10)
    assert summ.rhs == pytest.approx(
        2 * summ.terms["sum_L"] + 2 * summ.terms["D_tilde"], abs=1e-10)
    assert prod.terms["un_phi"] == pytest.approx(
        sum(prod.terms["per_k_UN_phi"]), abs=1e-12)


def test_memory_bound_rejects_negative_d():
    rho = werner_swap(0.0)
    with pytest.raises(ValidationError):
        product_bound_check(rho, pauli_basis("x"), pauli_basis("z"), 0.5, -0.5)


def test_memory_bound_rejects_wrong_basis_dimension():
    rho = random_density(EnsembleSpec("full_rank", (3, 2), 7))
    with pytest.raises(ValidationError):
        sum_bound_check(rho, pauli_basis("x"), pauli_basis("z"), 0.5, 0.0)


# --- the separable mixture (example 2) ---------------------------------------

def test_example2_bounds_and_self_consistency():
    rho = example2_state()
    alpha = 0.35
    d = brute_force_D_qubit(rho, alpha)
    assert d <= 1e-9  # classical-quantum state
    prod = product_bound_check(rho, pauli_basis("x"), pauli_basis("z"), alpha, d)
    summ = sum_bound_check(rho, pauli_basis("x"), pauli_basis("z"), alpha, d)
    eye2 = np.eye(2)
    heis = heisenberg_type_check(
        rho, HermitianOperator(kron(pauli("x").mat, eye2)),
        HermitianOperator(kron(pauli("z").mat, eye2)), alpha)
    # both memory bounds are held to 1e-9 here, tighter than their verdicts
    assert heis.holds and prod.slack >= -1e-9 and summ.slack >= -1e-9
    # x measurement commutes with the state, z does not
    assert prod.terms["un_phi"] == pytest.approx(0.0, abs=1e-9)
    assert prod.terms["un_psi"] == pytest.approx(0.5, abs=1e-9)
    assert prod.lhs == pytest.approx(0.0, abs=1e-9)
    assert summ.lhs == pytest.approx(0.5, abs=1e-9)
    assert summ.rhs == pytest.approx(0.0, abs=1e-9)
    # both left sides are built from the same two factors
    un_phi, un_psi = prod.terms["un_phi"], prod.terms["un_psi"]
    assert summ.terms["un_phi"] == pytest.approx(un_phi, abs=1e-12)
    assert summ.terms["un_psi"] == pytest.approx(un_psi, abs=1e-12)
    assert summ.lhs ** 2 == pytest.approx(
        un_phi**2 + un_psi**2 + 2 * prod.lhs, abs=1e-9)


def test_example2_product_components_trivial():
    # each pure product component gives zero on both sides of the product
    # bound and zero on the right of the sum bound
    plus = np.array([1, 1]) / np.sqrt(2)
    e0 = np.array([1.0, 0.0])
    from skewunc.linalg import BipartiteDensityMatrix

    comp = BipartiteDensityMatrix(
        kron(np.outer(plus, plus), np.outer(e0, e0)), 2, 2)
    alpha = 0.4
    d = brute_force_D_qubit(comp, alpha)
    assert d <= 1e-9
    prod = product_bound_check(comp, pauli_basis("x"), pauli_basis("z"), alpha, d)
    summ = sum_bound_check(comp, pauli_basis("x"), pauli_basis("z"), alpha, d)
    assert prod.lhs == pytest.approx(0.0, abs=1e-9)
    assert prod.rhs == pytest.approx(0.0, abs=1e-9)
    assert summ.rhs == pytest.approx(0.0, abs=1e-9)


# --- proof-chain consistency --------------------------------------------------

def test_product_chain_links_random():
    from skewunc.linalg import partial_trace
    from skewunc.skew import SkewEngine
    from skewunc.skew import ProjectiveBasis
    from skewunc.states import random_unitary

    for i in range(25):
        rho = random_density(EnsembleSpec("full_rank", (2, 2), 8), index=i)
        alpha = (0.2, 0.5, 0.8)[i % 3]
        phi = ProjectiveBasis(random_unitary(2, 9, index=i))
        psi = ProjectiveBasis(random_unitary(2, 10, index=i))
        d = brute_force_D_qubit(rho, alpha)
        rep = product_bound_check(rho, phi, psi, alpha, d)
        mid = sum(rep.terms["per_k_I_phi"]) * sum(rep.terms["per_k_I_psi"])
        eng_a = SkewEngine(partial_trace(rho, "A"))
        ia_phi = [eng_a.pair(phi.projector(k).mat, alpha).i_alpha for k in range(2)]
        ia_psi = [eng_a.pair(psi.projector(k).mat, alpha).i_alpha for k in range(2)]
        mid2 = (d + sum(ia_phi)) * (d + sum(ia_psi))
        mid3 = d**2 + sum(a * b for a, b in zip(ia_phi, ia_psi))
        assert rep.lhs >= mid - 1e-9
        assert mid >= mid2 - 1e-6  # link through the oracle-certified minimum
        assert mid2 >= mid3 - 1e-9
        assert mid3 >= rep.rhs - 1e-9


# --- shared engines per state -----------------------------------------------

@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_shared_context_reports_equal_standalone_checkers(dims):
    from skewunc.bounds import memory_bounds
    from skewunc.correlation import quantum_correlation_D
    from skewunc.linalg import partial_trace
    from skewunc.skew import ProjectiveBasis, compat_L, engine, skew_information_I
    from skewunc.states import random_unitary

    d_a, d_b = dims
    for i in range(4):
        rho = random_density(EnsembleSpec("full_rank", dims, 31), index=i)
        alpha = (0.2, 0.5, 0.7, 0.9)[i]
        phi = ProjectiveBasis(random_unitary(d_a, 32, index=i))
        psi = ProjectiveBasis(random_unitary(d_a, 33, index=i))
        oracle = (brute_force_D_qubit(rho, alpha) if d_a == 2 else
                  quantum_correlation_D(rho, alpha).value)
        for d_value in (0.0, oracle):
            prod, summ = memory_bounds(rho, phi, psi, alpha, d_value)
            assert prod == product_bound_check(rho, phi, psi, alpha, d_value)
            assert summ == sum_bound_check(rho, phi, psi, alpha, d_value)
            assert prod.terms == summ.terms and prod.terms is not summ.terms
            # every term equals its value from fresh engines on its own state
            engine.cache_clear()
            rho_a = partial_trace(rho, "A")
            for k in range(d_a):
                p_phi, p_psi = phi.projector(k), psi.projector(k)
                embedded = HermitianOperator(kron(p_phi.mat, np.eye(d_b)))
                assert prod.terms["per_k_I_phi"][k] == skew_information_I(
                    rho, embedded, alpha)
                assert prod.terms["per_k_L"][k] == compat_L(rho_a, p_phi, p_psi, alpha)


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_memory_bounds_equal_scoring_each_basis_alone(dims):
    """Both bases scored in one joint call give the same reports, bit for
    bit, as scoring each basis in its own call."""
    from skewunc.bounds import MEMORY_BOUND_TOL, _report, memory_bounds
    from skewunc.skew import ProjectiveBasis, compat_terms, measurement_uncertainty_terms
    from skewunc.states import random_unitary

    d_a, d_b = dims
    for i, kind in enumerate(("pure", "full_rank")):
        rho = random_density(EnsembleSpec(kind, dims, 41), index=i)
        phi = ProjectiveBasis(random_unitary(d_a, 42, index=i))
        psi = ProjectiveBasis(random_unitary(d_a, 43, index=i))
        d_value = 0.05
        for alpha in (0.0, 0.3, 0.5, 1.0):
            un_phi = measurement_uncertainty_terms(rho, phi, alpha, memory_dim=d_b)
            un_psi = measurement_uncertainty_terms(rho, psi, alpha, memory_dim=d_b)
            per_k_l = compat_terms(rho.reduced(), phi.projector_stack,
                                   psi.projector_stack, alpha)
            terms = {
                "un_phi": float(sum(t.u_alpha for t in un_phi)),
                "un_psi": float(sum(t.u_alpha for t in un_psi)),
                "per_k_UN_phi": [t.u_alpha for t in un_phi],
                "per_k_UN_psi": [t.u_alpha for t in un_psi],
                "per_k_I_phi": [t.i_alpha for t in un_phi],
                "per_k_I_psi": [t.i_alpha for t in un_psi],
                "per_k_L": per_k_l,
                "sum_L": float(sum(per_k_l)),
                "sum_L_sq": float(sum(l * l for l in per_k_l)),
                "D_tilde": d_value,
            }
            expected = (
                _report("product", terms["un_phi"] * terms["un_psi"],
                        terms["sum_L_sq"] + d_value * d_value, terms, MEMORY_BOUND_TOL),
                _report("sum", terms["un_phi"] + terms["un_psi"],
                        2.0 * terms["sum_L"] + 2.0 * d_value, terms, MEMORY_BOUND_TOL))
            assert memory_bounds(rho, phi, psi, alpha, d_value) == expected
