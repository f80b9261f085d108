"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Everything is seeded and deterministic.
"""

import math

import numpy as np

from conftest import dense_phase, dense_rotation, random_interleaved_word, random_pattern, random_word
from rhochart.builder import (
    build_commutant,
    build_density,
    jacobian_rank,
    kept_word,
    random_commutant_spec,
    random_density_chart,
)
from rhochart.charts import EigenChart, eigen_matrix, eigenvalues, fit_chart
from rhochart.decompose import decompose
from rhochart.degeneracy import (
    DegeneracyPattern,
    all_partitions,
    degrees_of_degeneracy,
    internal_params,
    orbit_dim,
    redundant_params,
)
from rhochart.numerics import adjoint, haar_unitary, max_abs_diff
from rhochart.words import (
    RotationAtom,
    WordForm,
    classify_form,
    count_phases,
    evaluate,
    normalize,
)

TWO_PI = 2 * math.pi


def pat(*mults):
    return DegeneracyPattern.from_multiplicities(list(mults))


def test_criterion_1_counting_golden_values():
    assert internal_params(pat(2, 1, 1)) == 7
    assert internal_params(pat(3, 1)) == 3
    assert internal_params(pat(1, 1, 1, 1)) == 9
    print("ACCEPTANCE 1 PASS: golden internal parameter counts (7, 3, 9) exact")


def test_criterion_2_formula_consistency_sweep():
    checked = 0
    for n in range(2, 7):
        for mults in all_partitions(n):
            p = DegeneracyPattern.from_multiplicities(list(mults))
            assert internal_params(p) + redundant_params(p) == (n - 1) ** 2
            assert redundant_params(p) == 2 * degrees_of_degeneracy(p)
            checked += 1
    print(f"ACCEPTANCE 2 PASS: counting identities exact on {checked} partitions of n=2..6")


def test_criterion_3_jacobian_rank_oracle():
    rng = np.random.default_rng(2024)
    cases = 0
    for n in range(2, 6):
        for mults in all_partitions(n):
            pattern = DegeneracyPattern.from_multiplicities(list(mults))
            expected = orbit_dim(pattern)
            assert expected == n * n - sum(m * m for m in pattern.multiplicities)
            for _ in range(3):
                chart = random_density_chart(pattern, rng, interior=True)
                assert jacobian_rank(chart) == expected, (mults, expected)
                cases += 1
    print(f"ACCEPTANCE 3 PASS: jacobian rank == orbit dimension in {cases}/{cases} charts")


def test_criterion_4_rewrite_preservation():
    rng = np.random.default_rng(4)
    total, reachable = 1000, 0
    forms = (WordForm.ONE_PHASE_ONE_ROTATION, WordForm.PHASE_ADJOINT, WordForm.KM)
    worst = dict.fromkeys(forms, 0.0)
    for _ in range(total):
        n = int(rng.integers(2, 7))
        unique = bool(rng.random() < 0.7)
        w = random_word(n, rng, max_atoms=20, unique_pairs=unique)
        u, rotated = evaluate(w), any(isinstance(a, RotationAtom) for a in w.atoms)
        for form in forms:
            out = normalize(w, form)  # a word with no rotation becomes one diagonal, read as opor
            assert classify_form(out) is (form if rotated else WordForm.ONE_PHASE_ONE_ROTATION)
            worst[form] = max(worst[form], max_abs_diff(u, evaluate(out)))
        reachable += 1
    assert max(worst.values()) < 1e-12
    assert reachable == total
    drifts = ", ".join(f"{form.value} {drift:.2e}" for form, drift in worst.items())
    print(f"ACCEPTANCE 4 PASS: {reachable}/{total} words normalized, max evaluation drift {drifts} < 1e-12")


def test_criterion_5_km_phase_count():
    rng = np.random.default_rng(5)
    counts = []
    for n in range(3, 7):
        for _ in range(5):
            w = random_interleaved_word(n, rng)
            out = normalize(w, WordForm.KM)
            assert max_abs_diff(evaluate(w), evaluate(out)) < 1e-12
            internal, external = count_phases(out)
            assert internal == (n - 1) * (n - 2) // 2
            assert external == 2 * n - 1
        counts.append(internal)
    assert counts == [1, 3, 6, 10]
    print("ACCEPTANCE 5 PASS: km internal phase counts (1, 3, 6, 10) for n=3..6")


def test_criterion_6_surjectivity_round_trip():
    rng = np.random.default_rng(6)
    worst = 0.0
    for n in range(2, 9):
        for _ in range(500):
            u = haar_unitary(n, rng)
            result = decompose(u)
            worst = max(worst, max_abs_diff(evaluate(result.word), u))
            assert result.residual < 1e-10
            for atom in result.word.atoms:
                if isinstance(atom, RotationAtom):
                    assert 0.0 <= atom.theta <= math.pi / 2
                else:
                    assert all(0.0 <= v < TWO_PI for v in atom.deltas.values())
    assert worst < 1e-10
    print(f"ACCEPTANCE 6 PASS: 3500 round trips, worst reconstruction error {worst:.2e} < 1e-10")


def test_criterion_7_commutant_invariance():
    rng = np.random.default_rng(7)
    worst_rho, worst_comm = 0.0, 0.0
    for n in range(2, 6):
        for _ in range(200):
            pattern = random_pattern(n, rng)
            chart = random_density_chart(pattern, rng)
            spec = random_commutant_spec(pattern, rng)
            c = build_commutant(spec)
            u = evaluate(kept_word(chart))
            d = eigen_matrix(chart.eigen)
            uc = u @ c
            worst_rho = max(worst_rho, max_abs_diff(u @ d @ adjoint(u), uc @ d @ adjoint(uc)))
            # any diagonal respecting the pattern must commute with c
            values = rng.uniform(0.0, 1.0, pattern.num_classes)
            diag = np.zeros(n, dtype=complex)
            for value, cls in zip(values, pattern.classes):
                for idx in cls:
                    diag[idx - 1] = value
            dm = np.diag(diag)
            worst_comm = max(worst_comm, max_abs_diff(c @ dm, dm @ c))
    assert worst_rho < 1e-12
    assert worst_comm < 1e-13
    print(
        f"ACCEPTANCE 7 PASS: density drift {worst_rho:.2e} < 1e-12, "
        f"commutator norm {worst_comm:.2e} < 1e-13 over 800 triples"
    )


def test_criterion_8_worked_n3_reproduction():
    from rhochart.builder import BlockParam, DensityChart

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        d3, dx = rng.uniform(0, TWO_PI, 2)
        t31, tx, th = rng.uniform(0, math.pi / 2, 3)

        # equal first two eigenvalues: kept blocks (3,1), (2,3)
        pattern = pat(2, 1)
        chart = DensityChart(
            pattern=pattern,
            eigen=EigenChart(pattern=pattern, angles=(th,)),
            unitary_params=(
                BlockParam(block=(3, 1), delta=d3, theta=t31),
                BlockParam(block=(2, 3), delta=dx, theta=tx),
            ),
        )
        s2, c2 = math.sin(th) ** 2, math.cos(th) ** 2
        left = (
            dense_phase(3, {3: d3})
            @ dense_rotation(3, 1, 3, t31)
            @ dense_phase(3, {2: dx})
            @ dense_rotation(3, 2, 3, tx)
        )
        explicit = left @ np.diag([s2 / 2, s2 / 2, c2]).astype(complex) @ adjoint(left)
        worst = max(worst, max_abs_diff(build_density(chart), explicit))

        # equal last two eigenvalues: kept blocks (3,1), (1,2)
        pattern = pat(1, 2)
        chart = DensityChart(
            pattern=pattern,
            eigen=EigenChart(pattern=pattern, angles=(th,)),
            unitary_params=(
                BlockParam(block=(3, 1), delta=d3, theta=t31),
                BlockParam(block=(1, 2), delta=dx, theta=tx),
            ),
        )
        left = (
            dense_phase(3, {3: d3})
            @ dense_rotation(3, 1, 3, t31)
            @ dense_phase(3, {1: dx})
            @ dense_rotation(3, 1, 2, tx)
        )
        explicit = left @ np.diag([s2, c2 / 2, c2 / 2]).astype(complex) @ adjoint(left)
        worst = max(worst, max_abs_diff(build_density(chart), explicit))
    assert worst < 1e-12
    print(f"ACCEPTANCE 8 PASS: pruned n=3 densities match explicit products, worst {worst:.2e}")


def test_criterion_9_eigen_charts():
    rng = np.random.default_rng(9)
    worst_trace, worst_fit = 0.0, 0.0
    for _ in range(1000):
        pattern = random_pattern(int(rng.integers(1, 7)), rng)
        k = pattern.num_classes
        chart = EigenChart(
            pattern=pattern,
            angles=tuple(float(a) for a in rng.uniform(0.0, math.pi / 2, k - 1)),
        )
        values = eigenvalues(chart)
        worst_trace = max(worst_trace, abs(sum(values) - 1.0))
        assert min(values) >= 0.0
        for cls in pattern.classes:
            assert len({values[i - 1] for i in cls}) == 1
        refit = eigenvalues(fit_chart(values, pattern))
        worst_fit = max(worst_fit, max(abs(a - b) for a, b in zip(values, refit)))
    assert worst_trace <= 1e-15
    assert worst_fit < 1e-12
    print(
        f"ACCEPTANCE 9 PASS: 1000 charts, trace error {worst_trace:.2e} <= 1e-15, "
        f"fit round trip {worst_fit:.2e} < 1e-12"
    )
