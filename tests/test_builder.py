import math

import numpy as np
import pytest

from conftest import (
    dense_phase,
    dense_product,
    dense_rotation,
    fd_jacobian,
    random_pattern,
    rho_frame_jacobian,
)
from rhochart.builder import (
    SVD_THRESHOLD,
    BlockParam,
    CommutantSpec,
    DensityChart,
    build_commutant,
    build_density,
    _jacobian,
    dropped_blocks,
    jacobian_rank,
    kept_blocks,
    kept_word,
    prune_equivalence,
    random_commutant_spec,
    random_density_chart,
    random_full_params,
    split_full_params,
    validate_density,
)
from rhochart.charts import EigenChart, eigen_matrix, eigenvalues
from rhochart.degeneracy import (
    DegeneracyPattern,
    all_partitions,
    canonical_order,
    orbit_dim,
    redundant_params,
)
from rhochart.numerics import adjoint, max_abs_diff
from rhochart.words import Word, evaluate, make_opor_chart

TWO_PI = 2 * math.pi


def pat(*mults):
    return DegeneracyPattern.from_multiplicities(list(mults))


def chart_21(delta3, theta31, delta2, theta23, eigen_angle):
    return DensityChart(
        pattern=pat(2, 1),
        eigen=EigenChart(pattern=pat(2, 1), angles=(eigen_angle,)),
        unitary_params=(
            BlockParam(block=(3, 1), delta=delta3, theta=theta31),
            BlockParam(block=(2, 3), delta=delta2, theta=theta23),
        ),
    )


def chart_12(delta3, theta31, delta1, theta12, eigen_angle):
    pattern = pat(1, 2)
    return DensityChart(
        pattern=pattern,
        eigen=EigenChart(pattern=pattern, angles=(eigen_angle,)),
        unitary_params=(
            BlockParam(block=(3, 1), delta=delta3, theta=theta31),
            BlockParam(block=(1, 2), delta=delta1, theta=theta12),
        ),
    )


# kept/dropped block bookkeeping

def test_kept_blocks_match_canonical_order():
    assert kept_blocks(pat(2, 1)) == ((3, 1), (2, 3))
    assert dropped_blocks(pat(2, 1)) == ((1, 2),)
    assert kept_blocks(pat(1, 2)) == ((3, 1), (1, 2))
    assert kept_blocks(pat(3)) == ()
    assert dropped_blocks(pat(1, 1, 1)) == ()


def test_kept_blocks_are_the_cross_class_pairs():
    rng = np.random.default_rng(17)
    patterns = [pat(*mults) for n in range(1, 7) for mults in all_partitions(n)]
    for _ in range(200):  # non-contiguous classes: a shuffled index set cut into runs
        n = int(rng.integers(2, 8))
        order = [int(k) for k in rng.permutation(np.arange(1, n + 1))]
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), int(rng.integers(0, n)), replace=False))
        classes = tuple(tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n]))
        patterns.append(DegeneracyPattern(n=n, classes=classes))
    for pattern in patterns:
        order = canonical_order(pattern)
        assert kept_blocks(pattern) == tuple(lab for lab in order if not pattern.same_class(*lab))
        assert dropped_blocks(pattern) == tuple(lab for lab in order if pattern.same_class(*lab))


def test_block_param_is_a_block_tuple():
    bp = BlockParam(block=(3, 1), delta=0.1, theta=0.2)
    label, delta, theta = bp
    assert (label, delta, theta) == (bp.block, bp.delta, bp.theta) == ((3, 1), 0.1, 0.2)
    with pytest.raises(ValueError, match=r"^block \(3, 1\): delta must lie in \[0, 2\*pi\)"):
        BlockParam((3, 1), TWO_PI, 0.2)
    with pytest.raises(ValueError, match="theta in"):
        BlockParam(block=(3, 1), delta=0.1, theta=-0.1)
    assert bp._replace(theta=0.3) == ((3, 1), 0.1, 0.3)
    with pytest.raises(ValueError, match="theta in"):
        bp._replace(theta=2.0)


def test_split_full_params_n3_example():
    pattern = pat(2, 1)
    full = [k / 10 for k in range(9)]
    kept, dropped, trailing = split_full_params(full, pattern)
    # canonical order (3,1), (2,3), (1,2): the in-class block and the trailing
    # diagonal are the deleted parameters
    assert [bp.block for bp in kept] == [(3, 1), (2, 3)]
    assert [bp.block for bp in dropped] == [(1, 2)]
    assert trailing == (0.6, 0.7, 0.8)
    assert 2 * len(dropped) + len(trailing) == redundant_params(pattern) + 3


# density assembly

def test_build_density_zero_params_gives_eigen_matrix():
    chart = chart_21(0.0, 0.0, 0.0, 0.0, 0.7)
    assert max_abs_diff(build_density(chart), eigen_matrix(chart.eigen)) == 0.0


def test_build_density_fully_degenerate():
    pattern = pat(3)
    chart = DensityChart(
        pattern=pattern,
        eigen=EigenChart(pattern=pattern, angles=()),
        unitary_params=(),
    )
    assert max_abs_diff(build_density(chart), np.eye(3) / 3) < 1e-16


def test_build_density_basic_properties():
    rng = np.random.default_rng(0)
    for _ in range(25):
        pattern = random_pattern(int(rng.integers(2, 6)), rng)
        chart = random_density_chart(pattern, rng)
        rho = build_density(chart)
        assert max_abs_diff(rho, adjoint(rho)) < 1e-14
        assert abs(np.trace(rho) - 1.0) < 1e-14
        spectrum = np.sort(np.linalg.eigvalsh((rho + adjoint(rho)) / 2))
        target = np.sort(eigenvalues(chart.eigen))
        assert np.max(np.abs(spectrum - target)) < 1e-10


def test_build_density_matches_explicit_product_case_12():
    # lambda_1 = lambda_2: rho = P3 R31 P2 R23 D R23' P2* R31' P3*
    rng = np.random.default_rng(1)
    for _ in range(25):
        d3, d2 = rng.uniform(0, TWO_PI, 2)
        t31, t23, th = rng.uniform(0, math.pi / 2, 3)
        chart = chart_21(d3, t31, d2, t23, th)
        s2, c2 = math.sin(th) ** 2, math.cos(th) ** 2
        d = np.diag([s2 / 2, s2 / 2, c2]).astype(complex)
        left = (
            dense_phase(3, {3: d3})
            @ dense_rotation(3, 1, 3, t31)
            @ dense_phase(3, {2: d2})
            @ dense_rotation(3, 2, 3, t23)
        )
        explicit = left @ d @ adjoint(left)
        assert max_abs_diff(build_density(chart), explicit) < 1e-12


def test_build_density_matches_explicit_product_case_23():
    # lambda_2 = lambda_3: rho = P3 R31 P1 R12 D R12' P1* R31' P3*
    rng = np.random.default_rng(2)
    for _ in range(25):
        d3, d1 = rng.uniform(0, TWO_PI, 2)
        t31, t12, th = rng.uniform(0, math.pi / 2, 3)
        chart = chart_12(d3, t31, d1, t12, th)
        s2, c2 = math.sin(th) ** 2, math.cos(th) ** 2
        d = np.diag([s2, c2 / 2, c2 / 2]).astype(complex)
        left = (
            dense_phase(3, {3: d3})
            @ dense_rotation(3, 1, 3, t31)
            @ dense_phase(3, {1: d1})
            @ dense_rotation(3, 1, 2, t12)
        )
        explicit = left @ d @ adjoint(left)
        assert max_abs_diff(build_density(chart), explicit) < 1e-12


@pytest.mark.parametrize(
    "mults", [(1,) * 32, (2,) + (1,) * 30, (31, 1), (16, 16)], ids=["singletons", "pair", "31-1", "halves"]
)
def test_build_density_matches_dense_reference_n32(mults):
    chart = random_density_chart(pat(*mults), np.random.default_rng(32))
    u = dense_product(kept_word(chart))
    explicit = u @ np.diag(eigenvalues(chart.eigen)).astype(complex) @ adjoint(u)
    assert max_abs_diff(build_density(chart), explicit) < 1e-13


def test_density_chart_validation():
    with pytest.raises(ValueError):
        chart_21(0.0, 2.0, 0.0, 0.0, 0.3)  # theta outside [0, pi/2]
    with pytest.raises(ValueError):
        DensityChart(
            pattern=pat(2, 1),
            eigen=EigenChart(pattern=pat(2, 1), angles=(0.3,)),
            unitary_params=(BlockParam(block=(3, 1), delta=0.1, theta=0.2),),
        )


def test_density_chart_json_round_trip():
    rng = np.random.default_rng(3)
    chart = random_density_chart(pat(2, 1, 1), rng)
    assert DensityChart.from_json(chart.to_json()) == chart


def test_density_chart_json_rejects_non_contiguous_classes():
    # the JSON stores multiplicities, which would read back as classes ((1, 2), (3,))
    pattern = DegeneracyPattern(n=3, classes=((1, 3), (2,)))
    chart = random_density_chart(pattern, np.random.default_rng(3))
    with pytest.raises(ValueError, match="not contiguous"):
        chart.to_json()


# commutants

def test_diagonal_phase_commutes_with_any_pattern_diagonal():
    rng = np.random.default_rng(4)
    for mults in [(1, 1, 1), (2, 1), (2, 2)]:
        pattern = pat(*mults)
        spec = CommutantSpec(
            pattern=pattern,
            block_params=tuple(
                BlockParam(block=lab, delta=0.0, theta=0.0) for lab in dropped_blocks(pattern)
            ),
            phases=tuple(rng.uniform(0, TWO_PI, pattern.n)),
        )
        c = build_commutant(spec)
        d = np.diag(rng.uniform(0, 1, pattern.n)).astype(complex)
        assert max_abs_diff(c @ d, d @ c) < 1e-14


def test_commutant_block_commutes_with_degenerate_diagonal():
    rng = np.random.default_rng(5)
    pattern = pat(2, 1)
    for _ in range(10):
        spec = random_commutant_spec(pattern, rng)
        c = build_commutant(spec)
        a, b = rng.uniform(0, 1, 2)
        d = np.diag([a, a, b]).astype(complex)
        assert max_abs_diff(c @ d, d @ c) < 1e-14


def test_commutant_fully_degenerate_class():
    # one class of three indices: three rotation blocks plus diagonal phases
    rng = np.random.default_rng(6)
    pattern = pat(3)
    spec = random_commutant_spec(pattern, rng)
    assert len(spec.block_params) == 3
    assert 2 * len(spec.block_params) + len(spec.phases) == redundant_params(pattern) + 3 == 9
    c = build_commutant(spec)
    d = np.diag([0.4, 0.4, 0.4]).astype(complex)
    assert max_abs_diff(c @ d, d @ c) < 1e-13


def test_commutant_rejects_cross_class_block():
    with pytest.raises(ValueError):
        CommutantSpec(
            pattern=pat(2, 1),
            block_params=(BlockParam(block=(2, 3), delta=0.1, theta=0.2),),
            phases=(0.0, 0.0, 0.0),
        )


def test_commutant_invariance_of_density():
    rng = np.random.default_rng(7)
    for _ in range(40):
        pattern = random_pattern(int(rng.integers(2, 6)), rng)
        chart = random_density_chart(pattern, rng)
        spec = random_commutant_spec(pattern, rng)
        u = evaluate(kept_word(chart))
        uc = u @ build_commutant(spec)
        d = eigen_matrix(chart.eigen)
        assert max_abs_diff(u @ d @ adjoint(u), uc @ d @ adjoint(uc)) < 1e-12


# pruning

def test_prune_keeps_density_when_deleted_params_zero():
    rng = np.random.default_rng(8)
    for mults in [(2, 1), (1, 2), (2, 2), (3, 1)]:
        pattern = pat(*mults)
        full = random_full_params(pattern, rng)
        order = canonical_order(pattern)
        for k, lab in enumerate(order):
            if pattern.same_class(*lab):
                full[2 * k] = 0.0
                full[2 * k + 1] = 0.0
        full[2 * len(order):] = [0.0] * pattern.n
        chart = prune_equivalence(full, pattern, eigen_angles=rng.uniform(0.2, 1.2, pattern.num_classes - 1))
        full_word = make_opor_chart(pattern.n, _reorder_to_singleton(full, pattern))
        u = evaluate(full_word)
        d = eigen_matrix(chart.eigen)
        assert max_abs_diff(u @ d @ adjoint(u), build_density(chart)) < 1e-12


def _reorder_to_singleton(full, pattern):
    """Full-chart parameters are laid out in canonical_order(pattern); the
    plain chart constructor expects the all-singleton order instead."""
    order = canonical_order(pattern)
    singleton = canonical_order(DegeneracyPattern.singletons(pattern.n))
    by_label = {lab: (full[2 * k], full[2 * k + 1]) for k, lab in enumerate(order)}
    out = []
    for lab in singleton:
        out.extend(by_label[lab])
    out.extend(full[2 * len(order):])
    return out


def test_prune_singletons_deletes_only_trailing_phases():
    pattern = pat(1, 1, 1)
    rng = np.random.default_rng(14)
    full = random_full_params(pattern, rng)
    kept, dropped, trailing = split_full_params(full, pattern)
    assert dropped == ()
    assert len(trailing) == 3
    assert 2 * len(kept) == orbit_dim(pattern) == 6


def test_prune_equivalence_with_nonzero_deleted_params():
    rng = np.random.default_rng(9)
    for mults in [(1, 1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 1, 1)]:
        pattern = pat(*mults)
        full = random_full_params(pattern, rng)
        chart = prune_equivalence(
            full, pattern, eigen_angles=rng.uniform(0.2, 1.2, pattern.num_classes - 1)
        )
        kept, dropped, trailing = split_full_params(full, pattern)
        # the deleted parameters form a commutant: appending its word to the
        # kept word reproduces the full chart's density exactly
        spec = CommutantSpec(pattern=pattern, block_params=dropped, phases=trailing)
        u_full = evaluate(kept_word(chart)) @ build_commutant(spec)
        d = eigen_matrix(chart.eigen)
        rho_full = u_full @ d @ adjoint(u_full)
        assert max_abs_diff(rho_full, build_density(chart)) < 1e-12
        assert 2 * len(dropped) + len(trailing) == redundant_params(pattern) + pattern.n


def test_prune_default_spectrum_is_interior():
    pattern = pat(2, 1)
    rng = np.random.default_rng(10)
    chart = prune_equivalence(random_full_params(pattern, rng), pattern)
    values = eigenvalues(chart.eigen)
    assert abs(sum(values) - 1.0) < 1e-12
    assert values[0] != values[2]


# rank oracle

def test_jacobian_rank_golden_cases():
    rng = np.random.default_rng(11)
    chart = random_density_chart(pat(2, 1), rng, interior=True)
    assert jacobian_rank(chart) == 4
    chart = DensityChart(pattern=pat(3), eigen=EigenChart(pattern=pat(3), angles=()), unitary_params=())
    assert jacobian_rank(chart) == 0
    chart = random_density_chart(pat(2, 1, 1), rng, interior=True)
    assert jacobian_rank(chart) == 10 == orbit_dim(pat(2, 1, 1))


def test_jacobian_rank_with_eigen_directions():
    rng = np.random.default_rng(12)
    for mults in [(1, 1, 1), (2, 1), (2, 2)]:
        pattern = pat(*mults)
        chart = random_density_chart(pattern, rng, interior=True)
        assert jacobian_rank(chart, include_eigen=True) == orbit_dim(pattern) + pattern.num_classes - 1


def _rank(jac):
    sv = np.linalg.svd(jac, compute_uv=False)
    return 0 if sv.size == 0 or sv[0] == 0.0 else int(np.sum(sv > SVD_THRESHOLD * sv[0]))


def _pair_indices(chart):
    """0-based (k, l) of the chart's pairs k < l, the rows ``_jacobian`` keeps."""
    pairs = np.array([sorted(bp.block) for bp in chart.unitary_params], dtype=int)
    return tuple(pairs.reshape(-1, 2).T - 1)


@pytest.mark.parametrize("include_eigen", [False, True])
def test_exact_jacobian_matches_finite_differences(include_eigen):
    rng = np.random.default_rng(13)
    for n in range(2, 5):
        for mults in all_partitions(n):
            chart = random_density_chart(pat(*mults), rng, interior=True)
            exact = _jacobian(chart, include_eigen)
            reference = fd_jacobian(chart, include_eigen)
            # each column as U^dagger d(rho) U, then the rows the eigenframe keeps
            u = evaluate(kept_word(chart))
            drho = (reference[: n * n] + 1j * reference[n * n :]).reshape(n, n, -1)
            frame = np.einsum("ki,ijc,jl->klc", adjoint(u), drho, u)
            kept = np.sqrt(2.0) * frame[_pair_indices(chart)]
            diagonal = frame[range(n), range(n)]
            selected = np.concatenate([kept.real, kept.imag] + [diagonal.real] * include_eigen)
            assert exact.shape == selected.shape
            scale = np.max(np.abs(reference), initial=0.0)
            assert np.max(np.abs(exact - selected), initial=0.0) <= 1e-6 * scale, mults
            # what the eigenframe drops is zero: in-class entries, unitary columns' diagonal
            same = np.array([[chart.pattern.same_class(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])
            in_class = frame[same & ~np.eye(n, dtype=bool)]
            unitary_diagonal = diagonal[:, : 2 * len(chart.unitary_params)]
            for dropped in (in_class, unitary_diagonal):
                assert np.max(np.abs(dropped), initial=0.0) <= 1e-6 * scale, mults
            assert _rank(reference) == jacobian_rank(chart, include_eigen), mults


@pytest.mark.parametrize("include_eigen", [False, True])
def test_eigenframe_jacobian_keeps_rho_frame_singular_values(include_eigen):
    """The eigenframe rows are an orthogonal change of rho's real and imaginary
    rows, zero rows dropped: same singular values, square over the kept blocks."""
    rng = np.random.default_rng(14)
    mults = [m for n in range(2, 7) for m in all_partitions(n)]
    mults += [(1,) * 8, (2,) + (1,) * 6, (7, 1), (4, 4)]
    charts = [random_density_chart(pat(*m), rng, interior=True) for m in mults]
    if not include_eigen:
        singletons = DegeneracyPattern.singletons(32)
        charts.append(prune_equivalence(random_full_params(singletons, rng), singletons))
    for chart in charts:
        pattern = chart.pattern
        jac = _jacobian(chart, include_eigen)
        dim, extra = orbit_dim(pattern), (pattern.num_classes - 1) * include_eigen
        assert jac.shape == (dim + pattern.n * include_eigen, dim + extra)
        sv = np.linalg.svd(jac, compute_uv=False)
        reference = np.linalg.svd(rho_frame_jacobian(chart, include_eigen), compute_uv=False)
        assert sv.shape == reference.shape
        largest = np.max(reference, initial=0.0)
        assert np.max(np.abs(sv - reference), initial=0.0) <= 1e-11 * largest, pattern.multiplicities


def test_jacobian_rank_rejects_boundary_chart():
    chart = chart_21(0.0, 0.0, 0.0, 0.0, 0.7)
    with pytest.raises(ValueError):
        jacobian_rank(chart)


def test_jacobian_rank_rejects_accidental_mass_collision():
    # sin^2 = cos^2 = 1/2 makes the two class masses collide
    collision = math.asin(math.sqrt(0.5))
    chart = chart_21(1.0, 0.5, 1.0, 0.5, collision)
    with pytest.raises(ValueError):
        jacobian_rank(chart)


# validation

def test_validate_density_reports():
    assert validate_density(np.eye(4) / 4).passed
    report = validate_density(np.diag([1.2, -0.2]).astype(complex))
    assert not report.passed
    assert report.min_eigenvalue < -0.19


def test_validate_density_on_random_charts():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        pattern = random_pattern(int(rng.integers(2, 6)), rng)
        rho = build_density(random_density_chart(pattern, rng))
        assert validate_density(rho, tol=1e-10).passed
