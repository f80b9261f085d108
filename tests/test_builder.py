import hashlib
import json
import math

import numpy as np
import pytest

from conftest import (
    all_multiplicity_lists,
    dense_phase,
    dense_product,
    dense_rotation,
    fd_jacobian,
    random_pattern,
    rho_frame_jacobian,
)
from rhochart.builder import (
    MASS_GAP,
    SVD_THRESHOLD,
    build_commutant,
    build_density,
    _draw,
    _jacobian,
    _require_interior,
    jacobian_rank,
    kept_word,
    random_commutant_spec,
    random_density_chart,
    validate_density,
)
from rhochart.charts import (
    BlockParam,
    CommutantSpec,
    DensityChart,
    EigenChart,
    class_masses,
    dropped_blocks,
    eigen_matrix,
    eigenvalues,
    fit_chart,
    kept_blocks,
    spread,
)
from rhochart.degeneracy import (
    DegeneracyPattern,
    all_partitions,
    canonical_order,
    orbit_dim,
    redundant_params,
)
from rhochart.numerics import adjoint, max_abs_diff
from rhochart.words import evaluate, opor_word

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
    for pattern in map(DegeneracyPattern, all_multiplicity_lists(8)):
        order, cls = canonical_order(pattern), pattern._class
        assert kept_blocks(pattern) == tuple((a, b) for a, b in order if cls[a] != cls[b])
        assert dropped_blocks(pattern) == tuple((a, b) for a, b in order if cls[a] == cls[b])


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


def test_charts_keep_their_own_copy_of_the_callers_lists():
    """A validated chart cannot change after its checks ran: the lists it was
    given are copied, so emptying or editing them leaves the chart as it was."""
    p, rng = pat(2, 1), np.random.default_rng(3)
    angles = [0.3]
    eigen = EigenChart(p, angles)
    angles[0] = 5.0
    assert eigen.angles == (0.3,) and eigenvalues(eigen) == eigenvalues(EigenChart(p, (0.3,)))
    chart = random_density_chart(p, rng)
    params = list(chart.unitary_params)
    held = DensityChart(p, chart.eigen, params)
    params.clear()
    assert held == chart and np.array_equal(build_density(held), build_density(chart))
    spec = random_commutant_spec(p, rng)
    blocks, phases = list(spec.block_params), list(spec.phases)
    held = CommutantSpec(p, blocks, phases)
    blocks.clear()
    phases[0] = 9.0
    assert held == spec and np.array_equal(build_commutant(held), build_commutant(spec))


def test_kept_and_dropped_blocks_of_pattern_2_1():
    # canonical order (3,1), (2,3), (1,2): the in-class block and the trailing
    # diagonal are the commutant's parameters
    pattern = pat(2, 1)
    spec = random_commutant_spec(pattern, np.random.default_rng(0))
    assert kept_blocks(pattern) == ((3, 1), (2, 3))
    assert dropped_blocks(pattern) == tuple(bp.block for bp in spec.block_params) == ((1, 2),)
    assert len(spec.phases) == 3
    assert 2 * len(spec.block_params) + len(spec.phases) == redundant_params(pattern) + 3


def test_singletons_drop_only_the_trailing_phases():
    pattern = pat(1, 1, 1)
    spec = random_commutant_spec(pattern, np.random.default_rng(14))
    assert dropped_blocks(pattern) == spec.block_params == ()
    assert len(spec.phases) == 3
    assert 2 * len(kept_blocks(pattern)) == orbit_dim(pattern) == 6


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
    # every chart is written, and read back as the same chart and the same rho
    for mults in all_multiplicity_lists(6):
        chart = random_density_chart(pat(*mults), np.random.default_rng(3))
        back = DensityChart.from_json(json.loads(json.dumps(chart.to_json())))
        assert back == chart, mults
        assert build_density(back).tobytes() == build_density(chart).tobytes(), mults


def test_density_chart_from_json_names_the_field_a_value_type_rejects():
    with pytest.raises(ValueError, match=r"^pattern: multiplicities must be positive$"):
        DensityChart.from_json({"pattern": [0], "eigen_angles": [], "unitary_params": []})


def test_density_chart_from_json_reads_every_field_before_any_value_is_checked():
    # DensityChart.from_json reads every field's type and shape before it checks any value
    with pytest.raises(ValueError, match=r"^unitary_params: expected a list, got 'x'$"):
        DensityChart.from_json({"pattern": [0], "eigen_angles": [3.0], "unitary_params": "x"})


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


# the commutant factors out

def test_the_full_chart_is_the_kept_word_times_a_commutant():
    """The paper's claim: the full chart word, kept blocks then in-class blocks
    then the trailing diagonal, gives the rho of the pruned chart, since every
    parameter it drops belongs to a commutant of the eigen matrix."""
    rng = np.random.default_rng(9)
    for mults in [(1, 1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 1, 1), (1, 3, 1), (2, 3)]:
        pattern = pat(*mults)
        chart, spec = random_density_chart(pattern, rng), random_commutant_spec(pattern, rng)
        u = evaluate(opor_word(pattern.n, chart.unitary_params + spec.block_params, spec.phases))
        assert max_abs_diff(u @ eigen_matrix(chart.eigen) @ adjoint(u), build_density(chart)) < 1e-12
        assert 2 * len(spec.block_params) + len(spec.phases) == redundant_params(pattern) + pattern.n


def test_a_zero_commutant_leaves_the_kept_word():
    """In-class blocks and trailing phases all 0: the full chart word evaluates to
    the kept word's unitary, bit for bit, and the commutant to the identity."""
    rng = np.random.default_rng(8)
    for mults in [(2, 1), (1, 2), (2, 2), (3, 1)]:
        pattern = pat(*mults)
        chart = random_density_chart(pattern, rng)
        zero = CommutantSpec(pattern, [BlockParam(lab, 0.0, 0.0) for lab in dropped_blocks(pattern)], [0.0] * pattern.n)
        assert np.array_equal(build_commutant(zero), np.eye(pattern.n))
        u = evaluate(opor_word(pattern.n, chart.unitary_params + zero.block_params, zero.phases))
        assert np.array_equal(u, evaluate(kept_word(chart)))
        assert max_abs_diff(u @ eigen_matrix(chart.eigen) @ adjoint(u), build_density(chart)) < 1e-12


# rank oracle

def test_jacobian_rank_golden_cases():
    rng = np.random.default_rng(11)
    chart = random_density_chart(pat(2, 1), rng, interior=True)
    assert jacobian_rank(chart) == 4
    chart = DensityChart(pattern=pat(3), eigen=EigenChart(pattern=pat(3), angles=()), unitary_params=())
    assert jacobian_rank(chart) == 0
    chart = random_density_chart(pat(2, 1, 1), rng, interior=True)
    assert jacobian_rank(chart) == 10 == orbit_dim(pat(2, 1, 1))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: DensityChart(
                pattern=pat(2, 1), eigen=EigenChart(pattern=pat(1, 2), angles=(0.3,)), unitary_params=()
            ),
            "eigen chart pattern differs from the density pattern",
        ),
        (
            lambda: CommutantSpec(
                pattern=pat(2, 1), block_params=(BlockParam((1, 2), 0.1, 0.2),), phases=(0.0, 0.0)
            ),
            "expected 3 diagonal phases",
        ),
        (lambda: jacobian_rank(chart_21(0.3, 0.4, 0.5, 0.6, 0.0)), "eigen angle 0.0 is not interior"),
        (lambda: DensityChart.from_json([]), "^input: expected an object, got list$"),
        (lambda: validate_density([[0.5, 0.0], [0.0, np.nan]]), "matrix entries must be finite"),
    ],
    ids=[
        "eigen-pattern",
        "commutant-phases",
        "eigen-angle-0",
        "json-not-an-object",
        "density-nan",
    ],
)
def test_chart_errors_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _with_deltas(chart, delta):
    params = tuple(bp._replace(delta=delta) for bp in chart.unitary_params)
    return DensityChart(pattern=chart.pattern, eigen=chart.eigen, unitary_params=params)


def test_jacobian_rank_holds_at_zero_block_phases():
    """The rank does not depend on the block phases, so delta = 0 is interior."""
    rng = np.random.default_rng(15)
    for mults in all_multiplicity_lists(5):
        chart = _with_deltas(random_density_chart(pat(*mults), rng, interior=True), 0.0)
        assert jacobian_rank(chart) == orbit_dim(chart.pattern), mults
        expected = orbit_dim(chart.pattern) + chart.pattern.num_classes - 1
        assert jacobian_rank(chart, include_eigen=True) == expected, mults


def test_singleton_jacobian_determinant_closed_form():
    """log|det| of the square eigenframe system on singletons is the Euler-angle
    volume element times the weights: the sum over blocks b = (k, l) of
    log sin theta_b + e_b log cos theta_b + log 2 (lambda_l - lambda_k)^2, with
    e_b = 2 (earlier blocks with the same larger index) + 1; no phase enters."""
    rng = np.random.default_rng(16)
    for n in range(2, 7):
        for _ in range(4):
            drawn = random_density_chart(DegeneracyPattern.singletons(n), rng, interior=True)
            lam = eigenvalues(drawn.eigen)
            for chart in (drawn, _with_deltas(drawn, 0.0), _with_deltas(drawn, TWO_PI - 1e-9)):
                expected, earlier = 0.0, {}
                for bp in chart.unitary_params:
                    k, l = sorted(bp.block)
                    e = 2 * earlier.get(l, 0) + 1
                    earlier[l] = earlier.get(l, 0) + 1
                    weight = 2 * (lam[l - 1] - lam[k - 1]) ** 2
                    expected += math.log(math.sin(bp.theta)) + e * math.log(math.cos(bp.theta))
                    expected += math.log(weight)
                sign, logdet = np.linalg.slogdet(_jacobian(chart, include_eigen=False))
                assert sign != 0.0
                assert abs(logdet - expected) <= 1e-12, (n, chart.unitary_params)


def test_interior_sampler_separates_class_masses_in_one_draw():
    """Interior charts up to n = 256 are drawn without rejection: every one is
    accepted by the rank oracle, keeps its eigen angles 1e-2 inside their range,
    and its class masses at least 2e-4 and 10 MASS_GAP apart (up to the
    ``fit_chart`` round trip)."""
    rng = np.random.default_rng(17)
    patterns = [DegeneracyPattern.singletons(n) for n in (8, 16, 32, 64, 128, 256)]
    patterns += [random_pattern(int(rng.integers(2, 257)), rng) for _ in range(24)]
    for pattern in patterns:
        chart = random_density_chart(pattern, rng, interior=True)
        _require_interior(chart)
        assert all(1e-2 <= a <= math.pi / 2 - 1e-2 for a in chart.eigen.angles)
        masses = sorted(class_masses(chart.eigen))
        assert masses[0] >= 2e-4, pattern.multiplicities
        gaps = [q - p for p, q in zip(masses, masses[1:])]
        assert min(gaps, default=math.inf) >= 10 * MASS_GAP - 1e-14, pattern.multiplicities


#: (outputs, sha256) of the seeded samplers over ``sampler_corpus()``
GOLDEN_SAMPLES = (600, "7077166c94145535473e6f495c81d3f5928aeca15fcebb205e819e5469dc1f55")


def sampler_corpus():
    """Every ordered multiplicity list with n <= 6, then the four pattern kinds of
    the density-build benchmark (singletons, one pair, (n-1, 1), two halves) at
    n = 8, 16 and 32."""
    yield from all_multiplicity_lists(6)
    for n in (8, 16, 32):
        yield from ((1,) * n, (2,) + (1,) * (n - 2), (n - 1, 1), ((n + 1) // 2, n // 2))


def test_seeded_samplers_match_the_golden_digest():
    """Charts, commutants and full-chart parameter draws from two seeds, byte for
    byte, each followed by the generator's next draw: a sampler that reordered or
    dropped a draw would change the digest even where its own output agrees."""
    digest, outputs = hashlib.sha256(), 0
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        for mults in sampler_corpus():
            pattern = DegeneracyPattern.from_multiplicities(mults)
            for draw in (
                lambda: random_density_chart(pattern, rng).to_json(),
                lambda: random_density_chart(pattern, rng, interior=True).to_json(),
                lambda: repr(random_commutant_spec(pattern, rng)),
                lambda: _draw(rng, len(canonical_order(pattern)), phases=pattern.n),
            ):
                out = draw()
                digest.update(f"{json.dumps(out)} {rng.random()!r}\n".encode())
                outputs += 1
    assert (outputs, digest.hexdigest()) == GOLDEN_SAMPLES


#: ``random_density_chart(pat(3, 2), np.random.default_rng(165), interior=True)``,
#: pinned as literal JSON so that a change to the sampler cannot hide it: an
#: accepted chart whose Jacobian has singular values 2.6e-9 and 4.9e-10 of the
#: largest, below SVD_THRESHOLD, so ``jacobian_rank`` counts 10 of 12
ILL_CONDITIONED_CHART = {
    "pattern": [3, 2],
    "eigen_angles": [1.33207550309759],
    "unitary_params": [
        {"block": [5, 1], "delta": 2.907861255420219, "theta": 0.9054182935655268},
        {"block": [3, 5], "delta": 4.838216114060407, "theta": 1.4718130654358055},
        {"block": [3, 4], "delta": 5.38798894984553, "theta": 0.19343546107363419},
        {"block": [2, 5], "delta": 0.7166397862320564, "theta": 1.5360675690114378},
        {"block": [2, 4], "delta": 6.257504010370801, "theta": 1.495112855309737},
        {"block": [1, 4], "delta": 3.9674714092289665, "theta": 1.5591510543086233},
    ],
}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the float rank under-counts an accepted ill-conditioned chart",
)
def test_jacobian_rank_is_orbit_dim_on_an_ill_conditioned_accepted_chart():
    chart = DensityChart.from_json(ILL_CONDITIONED_CHART)
    _require_interior(chart)  # accepted: a refusal here is a failure, not the expected one
    assert jacobian_rank(chart) == orbit_dim(chart.pattern)


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
            cls = np.array(chart.pattern._class[1:])
            same = cls[:, None] == cls
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
        x = _draw(rng, len(kept_blocks(singletons)), phases=32)  # the trailing phases go unused
        masses = [2.0 * (m + 1) / (32 * 33) for m in range(32)]  # class masses 1 : 2 : ... : 32
        eigen = fit_chart(spread(singletons, masses), singletons)
        charts.append(DensityChart(singletons, eigen, map(BlockParam, kept_blocks(singletons), x[0::2], x[1::2])))
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
