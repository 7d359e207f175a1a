"""Acceptance suite: one test per criterion, reporting a pass/fail line each.

Everything must pass at the stated tolerances except the K1 sub-assertion of
criterion 7, which fails loudly rather than being weakened: both orthant-cone
runs stop at x1 = -20 box-wall points because the stop test uses the
box-constrained value at the current radius, while the box-free certificate
at radius 1 there is t = -0.69.  README.md ("Install and test") records the
cause and what mending it needs.
"""

import math
import time

import numpy as np
import pytest

from setopt.bench import (
    ExperimentConfig,
    cone_experiment,
    emit_profile_svg,
    profile,
    sample_points,
    _problem_seed,
)
from setopt.cone import k2prime, orthant
from setopt.partition import ORDER_SLACK, structure_from_values
from setopt.problems import derivatives_all, problem_ids, registry
from setopt.solvers import SolverConfig, run
from setopt.subproblem import ModelSet, _Branches, inner_minimax, theta_and_step

SEED = 20240801
EPS = 1e-3


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name} {detail}"


# ---------------------------------------------------------------------------
# criterion 1: cone axiom suite

def test_criterion_1_cone_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for cone in (orthant(2), orthant(3), k2prime()):
        ys = rng.normal(scale=rng.uniform(0.5, 3.0), size=(10_000, cone.m))
        w = cone.dual_normals
        tol = 1e-10
        proj = ys @ w.T
        closed = np.all(proj <= tol, axis=1)
        interior = np.all(proj < -tol, axis=1)
        for y, is_closed, is_int in zip(ys, closed, interior):
            # the sign of the scalarization locates y relative to -K
            v = cone.scalarize(y)
            if is_int:
                assert v < -tol
            elif is_closed:
                assert -tol <= v <= tol
            else:
                assert v > tol
        scal = np.max(proj, axis=1)
        a, b = ys[:-1], ys[1:]
        sa, sb = scal[:-1], scal[1:]
        both = cone.scalarize_rows(a + b)
        assert np.all(both <= sa + sb + 1e-12)
        lam = rng.uniform(0.1, 10.0, size=len(ys))
        homog = cone.scalarize_rows(lam[:, None] * ys)
        assert np.all(np.abs(homog - lam * scal) <= 1e-12 * np.maximum(1.0, np.abs(lam * scal)))
        strict = np.all((b - a) @ w.T > tol, axis=1)
        assert np.all(sa[strict] < sb[strict])
        weak = np.all((b - a) @ w.T >= -tol, axis=1)
        assert np.all(sa[weak] <= sb[weak] + 1e-12)
        gap = np.abs(sa - sb)
        assert np.all(gap <= np.max(np.abs(a - b), axis=1) + 1e-12)
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (cone axioms, 3 cones x 1e4 vectors)", elapsed < 5.0,
            f"elapsed {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: dominance oracle equivalence

def _oracle_weakly_minimal_fast(vals: np.ndarray, cone) -> list:
    """Independent double-loop dominance test on plain Python floats."""
    tol = ORDER_SLACK
    proj = (vals @ cone.dual_normals.T).tolist()
    n = len(proj)
    wmin_idx = []
    for i in range(n):
        pi = proj[i]
        strictly = False
        for j in range(n):
            if j == i:
                continue
            if all(a - b > tol for a, b in zip(pi, proj[j])):
                strictly = True
                break
        if not strictly:
            wmin_idx.append(i)
    return wmin_idx


def test_criterion_2_dominance_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    cones = [orthant(2), orthant(3), orthant(4), k2prime()]
    for trial in range(10_000):
        cone = cones[trial % 4]
        n = int(rng.integers(1, 11))
        vals = rng.normal(size=(n, cone.m))
        if trial % 3 == 0:
            vals = np.round(vals, 1)              # provoke ties on cone boundaries
        if trial % 5 == 0 and n > 1:
            vals[rng.integers(n)] = vals[rng.integers(n)]  # duplicate rows
        groups = structure_from_values(vals, cone).groups
        assert sorted(i - 1 for g in groups for i in g) == _oracle_weakly_minimal_fast(vals, cone)
    elapsed = time.perf_counter() - t0
    _report("criterion 2 (dominance oracle, 1e4 sets)", elapsed < 10.0,
            f"elapsed {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: subproblem grid oracle

def test_criterion_3_subproblem_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    worst = -math.inf
    for _ in range(50):
        omega = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        g = rng.normal(size=(omega, m, 2)) * float(rng.choice([0.5, 1.0, 3.0]))
        h = rng.normal(size=(omega, m, 2, 2)) * float(rng.choice([0.5, 1.0, 3.0]))
        models = ModelSet(G=g, H=0.5 * (h + h.swapaxes(2, 3)))
        cone = orthant(m)
        radius = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        res = inner_minimax(models, cone, radius)
        assert res.t <= 0.0
        br = _Branches.build(models, cone)
        axis = np.linspace(-radius, radius, 201)
        xs, ys = np.meshgrid(axis, axis)
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        pts = pts[np.linalg.norm(pts, axis=1) <= radius]
        grid_min = float(br.phi_values(pts).min())
        worst = max(worst, res.t - grid_min)
        assert res.t <= grid_min + 1e-3
    elapsed = time.perf_counter() - t0
    _report("criterion 3 (grid oracle, 50 model sets)", elapsed < 60.0,
            f"worst gap {worst:.2e}, elapsed {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 4: reduction-to-monotone equivalence

CRIT4_PROBLEMS = ["dgo1_n1_m2", "dgo2_n1_m2", "modified_ex51_n1_m2",
                  "modified_ex53_n2_m2", "jos1a_n5_m2"]


def test_criterion_4_bitwise_reduction_to_trm():
    t0 = time.perf_counter()
    for pid in CRIT4_PROBLEMS:
        problem = registry(pid)
        cone = orthant(problem.m)
        points = sample_points(problem.domain_box, 5, _problem_seed(SEED, pid))
        for x0 in points:
            base = run(problem, cone, x0, SolverConfig(variant="trm"))
            as_max = run(problem, cone, x0, SolverConfig(variant="max", n_memory=0))
            as_avg = run(problem, cone, x0, SolverConfig(variant="avg", mu=0.0))

            def seq(res):
                return [r.x.tobytes() for r in res.trace] + [res.final_point.tobytes()]

            assert seq(base) == seq(as_max), f"{pid}: max(N=0) diverged from trm"
            assert seq(base) == seq(as_avg), f"{pid}: avg(mu=0) diverged from trm"
    _report("criterion 4 (bitwise reduction to monotone, 5 problems x 5 starts)", True,
            f"elapsed {time.perf_counter() - t0:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: section-4 invariants in vivo

CRIT5_PROBLEMS = ["dgo2_n1_m2", "hil_n2_m2", "jos1a_n5_m2",
                  "modified_ex53_n2_m2", "dtlz5_n3_m3"]


def _theta_soundness(problem, cone, res):
    if not res.converged:
        return True
    x = res.final_point
    structure = structure_from_values(problem.eval_all(x), cone)
    sol = theta_and_step(problem, cone, x, structure, res.final_omega,
                         derivatives_all(problem, x), box=problem.domain_box)
    return abs(sol.t_star) < 2.0 * EPS


@pytest.mark.parametrize("pid", CRIT5_PROBLEMS)
def test_criterion_5_invariants(pid):
    problem = registry(pid)
    cone = orthant(problem.m)
    points = sample_points(problem.domain_box, 10, _problem_seed(SEED, pid))
    prop32_bad = 0
    thm44_worst = 0.0
    thm45_worst = 0.0
    checked_iters = 0
    for x0 in points:
        for variant in ("max", "avg"):
            infos = []
            res = run(problem, cone, x0, SolverConfig(variant=variant),
                      observer=infos.append)
            assert _theta_soundness(problem, cone, res), "converged but not critical"
            checked_iters += len(infos)
            for info in infos:
                rec = info["record"]
                for j, ai in enumerate(rec.a):
                    margin = float(np.max(info["F_new"][ai - 1]
                                          - info["reference_full"][ai - 1]))
                    if abs(margin) > 1e-12:
                        if (rec.rho[j] > 0) != (margin < 0):
                            prop32_bad += 1
            # The ratio test reads only the rows of the selected tuple, so each
            # pair is checked on the rows of its earlier member's tuple.
            rows = [[ai - 1 for ai in i["record"].a] for i in infos]
            if variant == "max":
                acc = [j for j, i in enumerate(infos) if i["record"].accepted]
                for j1, j2 in zip(acc, acc[1:]):
                    r = rows[j1]
                    thm44_worst = max(thm44_worst, float(np.max(
                        infos[j2]["reference_full"][r] - infos[j1]["reference_full"][r])))
            else:
                cs = [i["C"] for i in infos]
                fx = [i["F_x"] for i in infos]
                for i in range(len(cs) - 1):
                    r = rows[i]
                    thm45_worst = max(thm45_worst, float(np.max(cs[i + 1][r] - cs[i][r])))
                    # fx[i + 1] is the value family at the true next iterate
                    thm45_worst = max(thm45_worst, float(np.max(fx[i + 1][r] - cs[i + 1][r])))
    checks = [
        (f"criterion 5a ({pid}: Proposition 3.2 equivalence)",
         prop32_bad == 0, f"{checked_iters} iterations checked"),
        (f"criterion 5b ({pid}: max-reference non-increase on the tuple rows <= 1e-8)",
         thm44_worst <= 1e-8, f"worst increase {thm44_worst:.3e}"),
        (f"criterion 5c ({pid}: avg chain F <= C_k+1 <= C_k on the tuple rows within 1e-8)",
         thm45_worst <= 1e-8, f"worst increase {thm45_worst:.3e}"),
    ]
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name} :: {detail}")
    failed = [name for name, ok, _ in checks if not ok]
    assert not failed, f"failed: {failed}"


# ---------------------------------------------------------------------------
# criterion 6: Table-2 trend reproduction at desk scale

def _nonconv_counts(pid, algorithms, n_points=20):
    problem = registry(pid)
    cone = orthant(problem.m)
    points = sample_points(problem.domain_box, n_points, _problem_seed(SEED, pid))
    counts = {}
    for algo in algorithms:
        counts[algo] = sum(
            not run(problem, cone, x0, SolverConfig(variant=algo)).converged
            for x0 in points
        )
    return counts


def test_criterion_6_table2_trends():
    t0 = time.perf_counter()
    zdt1 = _nonconv_counts("zdt1_n10_m2", ("sd", "cg", "trm", "max"))
    _report("criterion 6a (zdt1 n=10: SD and CG fail 20/20)",
            zdt1["sd"] == 20 and zdt1["cg"] == 20, f"{zdt1}")
    _report("criterion 6a (zdt1 n=10: max nonconv <= trm nonconv)",
            zdt1["max"] <= zdt1["trm"], f"{zdt1}")
    zdt4 = _nonconv_counts("zdt4_n10_m2", ("trm", "max", "avg"))
    _report("criterion 6b (zdt4 n=10: all TR variants <= 2 nonconv)",
            all(v <= 2 for v in zdt4.values()), f"{zdt4}")
    dgo2 = _nonconv_counts("dgo2_n1_m2", ("trm", "max", "avg"))
    _report("criterion 6c (dgo2: each TR variant <= 2 nonconv)",
            all(v <= 2 for v in dgo2.values()), f"{dgo2}")
    elapsed = time.perf_counter() - t0
    _report("criterion 6 runtime < 15 min", elapsed < 900.0, f"elapsed {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 7: Fig-1 qualitative reproduction

X0_FIG1 = np.array([-16.355461, -2.454201])


@pytest.fixture(scope="module")
def fig1_runs():
    return cone_experiment("modified_ex53_n2_m2", X0_FIG1,
                           {"k1": orthant(2), "k2prime": k2prime()}, it_max=100)


def test_criterion_7_k1_nonconvergent(fig1_runs):
    per_algo = fig1_runs["k1"]
    ok = all(not per_algo[a]["result"].converged
             and per_algo[a]["result"].iterations == 100 for a in ("max", "avg"))
    detail = {a: (per_algo[a]["result"].converged, per_algo[a]["result"].iterations)
              for a in ("max", "avg")}
    _report("criterion 7 (K1: both NTRMs hit it_max unconverged)", ok, f"{detail}")


def test_criterion_7_k2prime_converges(fig1_runs):
    per_algo = fig1_runs["k2prime"]
    ok = all(per_algo[a]["result"].converged
             and per_algo[a]["result"].iterations <= 100 for a in ("max", "avg"))
    detail = {a: (per_algo[a]["result"].converged, per_algo[a]["result"].iterations)
              for a in ("max", "avg")}
    _report("criterion 7 (K2': both NTRMs converge within 100)", ok, f"{detail}")


def test_criterion_7_cones_differ(fig1_runs):
    def seq(data):
        return [tuple(rec.x) for rec in data["result"].trace]

    ok = all(seq(fig1_runs["k1"][a]) != seq(fig1_runs["k2prime"][a])
             for a in ("max", "avg"))
    _report("criterion 7 (K1 vs K2' produce different iterate sequences)", ok)


# ---------------------------------------------------------------------------
# criterion 8: profile machinery against hand computation

# any registered ids and variant names: ExperimentConfig accepts no others
P1, P2, P3, P4 = problem_ids()[:4]
S1, S2, S3 = "trm", "max", "avg"


def _fixture_records():
    counts = {
        (P1, S1): 1, (P1, S2): 2, (P1, S3): 4,
        (P2, S1): 2, (P2, S2): 2, (P2, S3): 6,
        (P3, S1): 3, (P3, S2): 1, (P3, S3): 1,
        (P4, S1): 4, (P4, S2): 2, (P4, S3): 8,
    }
    records = []
    for (pid, algo), bad in counts.items():
        for i in range(20):
            records.append({
                "problem": pid, "algorithm": algo, "point_index": i, "x0": [0.0],
                "converged": i >= bad, "iterations": 10, "cpu_time": 1.0,
                "mean_step_size": 0.25, "final_t": -1e-4, "diagnostic": None,
            })
    return records


def test_criterion_8_profile_hand_computation(tmp_path):
    config = ExperimentConfig(problem_ids=(P1, P2, P3, P4),
                              algorithms=(S1, S2, S3), points_per_problem=20)
    curves = {c.algorithm: c for c in profile(_fixture_records(), "nonconv", config)}
    # hand computation: t = counts, per-problem minima (1, 2, 1, 2)
    assert curves[S1].ratios == (1.0, 1.0, 3.0, 2.0)
    assert curves[S2].ratios == (2.0, 1.0, 1.0, 1.0)
    assert curves[S3].ratios == (4.0, 3.0, 1.0, 4.0)
    taus = [pt[0] for pt in curves[S1].points]
    assert taus == [1.0, 2.0, 3.0, 4.0]
    assert [pt[1] for pt in curves[S1].points] == [0.5, 0.75, 1.0, 1.0]
    assert [pt[1] for pt in curves[S2].points] == [0.75, 1.0, 1.0, 1.0]
    assert [pt[1] for pt in curves[S3].points] == [0.25, 0.25, 0.5, 1.0]
    winners = sum(r == 1.0 for c in curves.values() for r in c.ratios)
    assert winners >= 4  # at least one winner per problem
    path_a, path_b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    emit_profile_svg(list(curves.values()), "nonconv", path_a)
    emit_profile_svg(list(curves.values()), "nonconv", path_b)
    identical = open(path_a, "rb").read() == open(path_b, "rb").read()
    _report("criterion 8 (profile ratios and rho match hand computation; "
            "SVG byte-deterministic)", identical)
