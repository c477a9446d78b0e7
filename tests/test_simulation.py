"""Monte Carlo engine: determinism, exchangeability, exact identities."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.stats

import stackmf.simulation as simulation
from stackmf.equilibrium import direction_library
from stackmf.follower import riccati_stages, sources
from stackmf.integrators import GridFunction, StageTable, stage_table
from stackmf.leader import assemble_extended
from stackmf.model import Mode, TimeGrid, load_scenario, time_sampled
from stackmf.simulation import (
    PURPOSE_INIT,
    PURPOSE_NOISE,
    Deviations,
    GridMismatchError,
    NoiseModel,
    _build_tables,
    _control_shift,
    _deviation_shifts,
    _population_shift,
    default_chunk_size,
    estimate_costs,
    simulate,
    solve_mean_state,
)
from conftest import (FAST_CFG_TEXT, control_shift_reference, follower_offset, integrate_forward,
                      population_shift_loop, random_scenario, solve_both, stage_at)


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------


def ensembles_equal(a, b) -> None:
    assert a.leader_cost == b.leader_cost
    assert a.social_cost == b.social_cost
    assert np.array_equal(a.follower_costs, b.follower_costs)
    assert np.array_equal(a.leader_cost_paths, b.leader_cost_paths)
    assert np.array_equal(a.social_cost_paths, b.social_cost_paths)
    assert np.array_equal(a.follower_cost_paths, b.follower_cost_paths)
    assert np.array_equal(a.lln_gap.values, b.lln_gap.values)
    for key in a.node_summary:
        assert np.array_equal(a.node_summary[key], b.node_summary[key]), key
    assert len(a.paths) == len(b.paths)
    for pa, pb in zip(a.paths, b.paths):
        assert np.array_equal(pa.x0, pb.x0)
        assert np.array_equal(pa.followers, pb.followers)
        assert np.array_equal(pa.u0, pb.u0)
        assert np.array_equal(pa.controls, pb.controls)


def _two_directions(s):
    dirs = tuple(v for _, v in direction_library(s.grid, s.dims.m, 2, seed=1))
    return Deviations(dirs, dirs)


def _chunks_of(monkeypatch, size) -> None:
    """Make `simulate` run chunks of `size` paths; None restores its own choice.
    The calling process reads the size before it builds any pool task."""
    monkeypatch.setattr(simulation, "default_chunk_size",
                        default_chunk_size if size is None else lambda N, steps, n_paths: size)


def test_worker_count_does_not_change_results(fast_gains):
    s, fg, lg = fast_gains
    dev = _two_directions(s)
    base = simulate(s, fg, lg, 24, seed=7, workers=1, deviations=dev)
    multi = simulate(s, fg, lg, 24, seed=7, workers=3, deviations=dev)
    ensembles_equal(base, multi)
    assert np.array_equal(base.deviation_slopes, multi.deviation_slopes)


def _check_chunking_is_invisible(s, fg, lg, monkeypatch) -> None:
    # Per-path quantities are computed path by path and must be bitwise stable
    # under re-chunking, and so must the cost means and standard errors;
    # node statistics may reassociate by one ulp.  A chunk of one path is
    # included: numpy sums a lone column pairwise.
    dev = _two_directions(s)
    base = simulate(s, fg, lg, 24, seed=7, store_paths=9, deviations=dev)
    for chunk in (7, 1):
        _chunks_of(monkeypatch, chunk)
        odd = simulate(s, fg, lg, 24, seed=7, store_paths=9, deviations=dev)
        assert np.array_equal(base.leader_cost_paths, odd.leader_cost_paths)
        assert np.array_equal(base.social_cost_paths, odd.social_cost_paths)
        assert np.array_equal(base.follower_cost_paths, odd.follower_cost_paths)
        assert base.social_cost == odd.social_cost
        assert np.array_equal(base.follower_costs, odd.follower_costs)
        assert np.array_equal(base.follower_costs_se, odd.follower_costs_se)
        assert np.array_equal(base.deviation_slopes, odd.deviation_slopes)
        assert np.array_equal(base.deviation_curvature, odd.deviation_curvature)
        assert len(base.paths) == len(odd.paths) == 9
        for pa, pb in zip(base.paths, odd.paths):
            for field in dataclasses.fields(pa):
                assert np.array_equal(getattr(pa, field.name), getattr(pb, field.name)), field.name
        assert np.allclose(base.lln_gap.values, odd.lln_gap.values, rtol=1e-12, atol=1e-14)
        for key in base.node_summary:
            assert np.allclose(
                base.node_summary[key], odd.node_summary[key], rtol=1e-12, atol=1e-14
            ), key


def test_chunk_size_changes_nothing_per_path(fast_gains, monkeypatch):
    _check_chunking_is_invisible(*fast_gains, monkeypatch)


@pytest.fixture(scope="module")
def fast_gains_30(fast_scenario):
    """The fast scenario with 30 followers: numpy sums a contiguous row of 8
    or more entries pairwise, so a sum over the followers can take either order."""
    return solve_both(dataclasses.replace(fast_scenario, dims=dataclasses.replace(fast_scenario.dims, N=30)))


@pytest.mark.parametrize("case", ["steps_127", "steps_128", "vector_game", "followers_30"])
def test_chunk_size_changes_nothing_per_path_on_every_block_shape(case, fast_scenario, request, monkeypatch):
    # The kernel works in blocks of 64 nodes.  At 127 steps the nodes fill
    # whole blocks; at 128 the last block is one node and takes no step.
    # The vector game (n = m = 2) has no scaled increments; its follower
    # products use BLAS, whose rows numpy's bundled OpenBLAS rounds alike for
    # any row count (README, "Determinism and reproducibility").
    if case == "vector_game":
        _check_chunking_is_invisible(*_vector_game(), monkeypatch)
    elif case == "followers_30":
        _check_chunking_is_invisible(*request.getfixturevalue("fast_gains_30"), monkeypatch)
    else:
        grid = TimeGrid(fast_scenario.grid.horizon, int(case[-3:]))
        _check_chunking_is_invisible(*solve_both(dataclasses.replace(fast_scenario, grid=grid)), monkeypatch)


def test_path_count_changes_nothing_per_path(fast_gains_30):
    # Path 0 run alone is one chunk of one path; its costs must carry the
    # bits it has among 12 paths.
    s, fg, lg = fast_gains_30
    for seed in range(8):
        alone = simulate(s, fg, lg, 1, seed=seed, store_paths=0)
        among = simulate(s, fg, lg, 12, seed=seed, store_paths=0)
        assert alone.leader_cost_paths[0] == among.leader_cost_paths[0], seed
        assert alone.social_cost_paths[0] == among.social_cost_paths[0], seed
        assert np.array_equal(alone.follower_cost_paths[0], among.follower_cost_paths[0]), seed


def test_noise_streams_are_counter_based(fast_gains):
    # Path 17 is the same stream whether or not paths 0..16 were simulated.
    s, fg, lg = fast_gains
    big = simulate(s, fg, lg, 18, seed=3, store_paths=18)
    lone = simulate(s, fg, lg, 1, seed=3, store_paths=1)
    assert np.array_equal(big.paths[0].followers, lone.paths[0].followers)


# ---------------------------------------------------------------------------
# Exchangeability
# ---------------------------------------------------------------------------


def test_relabeling_streams_permutes_costs(fast_gains):
    s, fg, lg = fast_gains
    perm = np.arange(s.dims.N, 0, -1)
    er = simulate(s, fg, lg, 16, seed=11, store_paths=0, relabel=(perm, 16))
    relabeled = er.follower_cost_paths[:, perm - 1]
    gap = np.max(np.abs(er.relabeled_cost_paths - relabeled))
    assert gap <= 1e-8 * (1.0 + np.max(np.abs(relabeled)))


def _ensemble_fields_equal(a, b) -> None:
    for field in dataclasses.fields(a):
        if field.name in ("relabeled_cost_paths", "node_summary", "paths"):
            continue
        x, y = getattr(a, field.name), getattr(b, field.name)
        if hasattr(x, "values"):
            x, y = x.values, y.values
        assert np.array_equal(x, y), field.name
    assert a.node_summary.keys() == b.node_summary.keys()
    for key in a.node_summary:
        assert np.array_equal(a.node_summary[key], b.node_summary[key]), key
    assert len(a.paths) == len(b.paths)
    for pa, pb in zip(a.paths, b.paths):
        for field in dataclasses.fields(pa):
            assert np.array_equal(getattr(pa, field.name), getattr(pb, field.name)), field.name


@pytest.mark.parametrize("count", [0, 10, 24])
def test_relabeled_lanes_change_nothing_else(count, fast_gains, monkeypatch):
    # Relabeled lanes ride along in the chunks of the paths they copy; every
    # other output keeps its bits, and theirs do not depend on the chunking
    # or the worker count.  At chunk size 7, count 10 ends inside chunk 1.
    s, fg, lg = fast_gains
    perm = np.array([3, 1, 5, 2, 4])
    dev = _two_directions(s)
    runs = [(None, {}), (7, {}), (1, {}), (7, dict(workers=2))]
    first = None
    for chunk, kw in runs:
        _chunks_of(monkeypatch, chunk)
        plain = simulate(s, fg, lg, 24, seed=7, store_paths=9, deviations=dev, **kw)
        er = simulate(s, fg, lg, 24, seed=7, store_paths=9, deviations=dev, relabel=(perm, count), **kw)
        assert plain.relabeled_cost_paths is None
        assert len(er.paths) == 9
        _ensemble_fields_equal(er, plain)
        assert er.relabeled_cost_paths.shape == (count, s.dims.N)
        first = er.relabeled_cost_paths if first is None else first
        assert np.array_equal(er.relabeled_cost_paths, first), (chunk, kw)
    if count:
        assert not np.array_equal(first, plain.follower_cost_paths[:count])


def test_reseeded_cost_samples_are_indistinguishable(fast_gains):
    # Two-sample test on the social cost across disjoint seeds.
    s, fg, lg = fast_gains
    a = simulate(s, fg, lg, 192, seed=100, store_paths=0)
    b = simulate(s, fg, lg, 192, seed=2_000_000, store_paths=0)
    stat = scipy.stats.ks_2samp(a.social_cost_paths, b.social_cost_paths)
    assert stat.pvalue >= 0.01


def test_bad_permutation_rejected(fast_gains):
    s, fg, lg = fast_gains
    with pytest.raises(ValueError):
        simulate(s, fg, lg, 2, seed=0, relabel=(np.ones(s.dims.N, dtype=int), 2))


@pytest.mark.parametrize("kwargs, name", [
    (dict(deviations=Deviations(follower=(np.ones(3),))), "shape"),
    (dict(deviations=Deviations(leader=(np.ones((200, 1)),))), "shape"),
    (dict(substeps=0), "substeps"),
    (dict(substeps=-1), "substeps"),
    (dict(relabel=([1, 2, 3, 4, 4], 2)), "permutation"),
    (dict(relabel=([1, 2, 3, 4], 2)), "permutation"),
    (dict(relabel=([0, 1, 2, 3, 4], 2)), "permutation"),
    (dict(relabel=([5, 4, 3, 2, 1], -1)), "count"),
    (dict(relabel=([5, 4, 3, 2, 1], 5)), "count"),
    (dict(workers=0), "workers"),
    (dict(workers=-1), "workers"),
    (dict(store_paths=-1), "store_paths"),
])
def test_bad_arguments_rejected_before_any_work(kwargs, name, fast_gains, monkeypatch):
    # Nothing is solved or drawn before the arguments are checked.
    def no_work(*args, **kw):
        raise AssertionError("work started before the arguments were checked")

    s, fg, lg = fast_gains
    assert s.dims.N == 5
    monkeypatch.setattr(simulation, "_build_tables", no_work)
    monkeypatch.setattr(simulation.NoiseModel, "generator", no_work)
    with pytest.raises(ValueError, match=name):
        simulate(s, fg, lg, 4, seed=0, **kwargs)


# ---------------------------------------------------------------------------
# Exact per-path identities
# ---------------------------------------------------------------------------


def test_population_average_is_exact_mean(fast_gains):
    s, fg, lg = fast_gains
    er = simulate(s, fg, lg, 4, seed=5, store_paths=4)
    for path in er.paths:
        gap = np.max(np.abs(path.xbar - path.followers.mean(axis=0)))
        assert gap <= 1e-13


def test_leader_control_recomposes_gain_tables(fast_gains):
    # u0 = -R0^-1 B0' (P00 (x0 - E[x0]) + E[Y]_0) with E[Y] = M E[X] + V: only
    # x0 is random in X, and P00 is leader P's block on it.
    s, fg, lg = fast_gains
    er = simulate(s, fg, lg, 3, seed=13, store_paths=3)
    n = s.dims.n
    P00, mean0 = lg.P.values[:, :n, :n], lg.mean.nodes[:, :n]
    EY0 = (np.einsum("kij,kj->ki", lg.M.values, lg.mean.nodes) + lg.V.values)[:, :n]
    for path in er.paths:
        expected = -(np.einsum("kij,kj->ki", P00, path.x0 - mean0) + EY0) @ lg.control_map.T
        assert np.max(np.abs(path.u0 - expected)) <= 1e-12


@pytest.mark.parametrize("fixture", ["fast_gains", "fast_game_gains"])
def test_kernel_reads_no_leader_table_but_P00_M_and_V(fixture, request):
    # The paths read leader P only on its x0 block, and leader K not at all:
    # randomizing K and every other block of P leaves the costs and the
    # leader's controls bit-identical.
    s, fg, lg = request.getfixturevalue(fixture)
    n = s.dims.n
    rng = np.random.default_rng(5)
    P = rng.standard_normal(lg.P.values.shape)
    P[:, :n, :n] = lg.P.values[:, :n, :n]
    scrambled = dataclasses.replace(lg, P=GridFunction(s.grid, P),
                                    K=GridFunction(s.grid, rng.standard_normal(lg.K.values.shape)))
    a, b = (simulate(s, fg, g, 6, seed=4, store_paths=6) for g in (lg, scrambled))
    for name in ("leader_cost_paths", "follower_cost_paths", "social_cost_paths"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert all(np.array_equal(p.u0, q.u0) for p, q in zip(a.paths, b.paths))


def test_social_cost_is_average_of_follower_costs(fast_gains):
    s, fg, lg = fast_gains
    er = simulate(s, fg, lg, 32, seed=17, store_paths=0)
    gap = np.max(np.abs(er.social_cost_paths - er.follower_cost_paths.mean(axis=1)))
    assert gap <= 1e-12 * (1.0 + np.max(np.abs(er.social_cost_paths)))


def test_costs_nonnegative_without_targets():
    text = FAST_CFG_TEXT.replace("eta = 0.5", "eta = 0.0").replace("eta = 0.1", "eta = 0.0")
    text = text.replace("f = 0.3", "f = 0.0").replace("f = 0.2", "f = 0.0")
    s, fg, lg = solve_both(load_scenario(text))
    er = simulate(s, fg, lg, 64, seed=23, store_paths=0)
    assert np.min(er.leader_cost_paths) >= -1e-12
    assert np.min(er.follower_cost_paths) >= -1e-12


def test_estimate_costs_table(fast_gains):
    s, fg, lg = fast_gains
    er = simulate(s, fg, lg, 8, seed=1, store_paths=0)
    rows = estimate_costs(er)
    names = [r[0] for r in rows]
    assert names[:2] == ["J0", "Jsoc"]
    assert names[2:] == [f"J{i}" for i in range(1, s.dims.N + 1)]
    assert rows[0][1] == er.leader_cost.mean and rows[0][2] == er.leader_cost.se


# ---------------------------------------------------------------------------
# Degenerate noise and forced controls
# ---------------------------------------------------------------------------


DETERMINISTIC_CFG = (
    FAST_CFG_TEXT
    .replace("D = 0.4", "D = 0.0")
    .replace("D = 0.5", "D = 0.0")
    .replace('leader = "gaussian(1.0, 0.25)"', 'leader = "constant(1.0)"')
    .replace('follower = "uniform(-1, 3)"', 'follower = "constant(2.0)"')
)


def test_noise_free_runs_are_seed_independent():
    # Power-of-two path count keeps the pairwise mean reductions exact, so
    # the zero-variance assertions below hold bitwise.
    s, fg, lg = solve_both(load_scenario(DETERMINISTIC_CFG))
    a = simulate(s, fg, lg, 4, seed=1, store_paths=1)
    b = simulate(s, fg, lg, 4, seed=999, store_paths=1)
    assert a.leader_cost.mean == b.leader_cost.mean
    assert a.leader_cost.se == 0.0
    assert np.array_equal(a.paths[0].x0, b.paths[0].x0)
    assert np.max(a.node_summary["x0_std"]) == 0.0


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------


def test_wiener_substeps_refine_the_same_path():
    nm = NoiseModel(seed=5)
    fine = nm.wiener(path=3, agents=4, steps=10, dt=0.1, substeps=1)
    coarse = nm.wiener(path=3, agents=4, steps=5, dt=0.2, substeps=2)
    assert np.allclose(coarse, fine[:, 0::2] + fine[:, 1::2], rtol=0.0, atol=1e-16)


def test_streams_differ_by_purpose_and_agent():
    nm = NoiseModel(seed=5)
    w = nm.wiener(path=0, agents=3, steps=8, dt=0.1)
    assert not np.array_equal(w[1], w[2])
    assert not np.array_equal(w, nm.wiener(path=1, agents=3, steps=8, dt=0.1))
    assert not np.array_equal(w, NoiseModel(seed=6).wiener(path=0, agents=3, steps=8, dt=0.1))
    init = nm.generator(0, PURPOSE_INIT).standard_normal(8)
    assert not np.array_equal(init, nm.generator(0, PURPOSE_NOISE).standard_normal(8))
    with pytest.raises(ValueError):
        nm.generator(path=-1, purpose=0)
    with pytest.raises(ValueError):
        nm.generator(path=1 << 32, purpose=0)


def _sfc64(seed, path, purpose):
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, path, purpose])))


@pytest.mark.parametrize("seed, path", [(0, 0), (5, 3), ((1 << 64) - 1, (1 << 32) - 1)])
def test_rekeyed_streams_match_fresh_generators(seed, path):
    # Every draw starts its stream afresh: SFC64 seeded by (seed, path, purpose).
    nm = NoiseModel(seed)
    law = load_scenario(FAST_CFG_TEXT).init
    fresh = _sfc64(seed, path, PURPOSE_INIT)
    expected = np.concatenate([law.leader.sample(fresh, 1), law.follower.sample(fresh, 4)])
    assert np.array_equal(nm.initial(path, law, 4), expected)
    fresh = _sfc64(seed, path, PURPOSE_NOISE)
    expected = fresh.standard_normal((5, 64)) * np.sqrt(0.01)
    assert np.array_equal(nm.wiener(path, 5, steps=64, dt=0.01), expected)
    out = np.empty((5, 64))
    assert nm.wiener(path, 5, steps=64, dt=0.01, out=out) is out
    assert np.array_equal(out, expected)
    # A stream drawn again after others is drawn afresh, not continued.
    other = nm.wiener(path ^ 1, 2, steps=7, dt=0.01)
    assert np.array_equal(nm.wiener(path ^ 1, 2, steps=7, dt=0.01), other)
    assert np.array_equal(nm.wiener(path, 1, steps=64, dt=0.01)[0, :7], expected[0, :7])


@pytest.mark.parametrize("substeps", [1, 3])
def test_wiener_rows_are_prefix_stable(substeps):
    # The first r agent rows of a draw are the draw for r agents.
    nm = NoiseModel(seed=41)
    full = nm.wiener(7, 9, steps=20, dt=0.05, substeps=substeps)
    for r in range(1, 9):
        assert np.array_equal(nm.wiener(7, r, steps=20, dt=0.05, substeps=substeps), full[:r]), r


def test_agent_rows_do_not_depend_on_the_follower_count(fast_scenario):
    # Row j of a path's block is agent j's stream whatever N is, so the first
    # five followers of an N = 7 run start where those of an N = 5 run do.
    nm = NoiseModel(seed=8)
    law = fast_scenario.init
    assert np.array_equal(nm.initial(3, law, 7)[:6], nm.initial(3, law, 5))
    assert np.array_equal(nm.wiener(3, 8, steps=50, dt=0.01)[:6], nm.wiener(3, 6, steps=50, dt=0.01))
    five = simulate(*solve_both(fast_scenario), 3, seed=8, store_paths=3)
    seven_s = dataclasses.replace(fast_scenario, dims=dataclasses.replace(fast_scenario.dims, N=7))
    seven = simulate(*solve_both(seven_s), 3, seed=8, store_paths=3)
    for a, b in zip(five.paths, seven.paths):
        assert np.array_equal(a.followers[:, 0], b.followers[:5, 0])
        assert np.array_equal(a.x0[0], b.x0[0])


def test_slot_relabelling_is_a_row_permutation(fast_gains):
    # Slot j of a relabeled lane reads agent row perm[j - 1] of the initial
    # states and the increments; the leader keeps row 0.  Its costs match
    # the plain per-agent loop driven by the permuted rows.
    s, fg, lg = fast_gains
    perm = np.array([3, 1, 5, 2, 4])
    er = simulate(s, fg, lg, 5, seed=12, store_paths=0, relabel=(perm, 5))
    ref = _reference_ensemble(s, fg, lg, 5, 12, Deviations(), np.zeros(1), perm=perm)
    np.testing.assert_allclose(er.relabeled_cost_paths, ref["Ji"], rtol=1e-11,
                               atol=1e-11 * np.max(np.abs(ref["Ji"])))
    assert not np.allclose(er.follower_cost_paths, ref["Ji"], rtol=1e-3)


def test_multi_chunk_results_are_worker_invariant(fast_gains, monkeypatch):
    # Four chunks over two workers: costs, paths, the merged node moments and
    # the deviation slopes match the in-process run bit for bit.
    s, fg, lg = fast_gains
    dev = _two_directions(s)
    _chunks_of(monkeypatch, 7)
    base = simulate(s, fg, lg, 26, seed=6, deviations=dev)
    multi = simulate(s, fg, lg, 26, seed=6, workers=2, deviations=dev)
    ensembles_equal(base, multi)
    assert np.array_equal(base.deviation_slopes, multi.deviation_slopes)


def test_node_std_is_stable_far_from_zero(monkeypatch):
    # |mean| ~ 1e6 * std: E[x^2] - E[x]^2 would lose about twelve digits.
    s = load_scenario(FAST_CFG_TEXT.replace('leader = "gaussian(1.0, 0.25)"', 'leader = "gaussian(1e6, 1.0)"'))
    s, fg, lg = solve_both(s)
    _chunks_of(monkeypatch, 7)
    er = simulate(s, fg, lg, 40, seed=21, store_paths=40)
    x0 = np.stack([p.x0 for p in er.paths])
    assert np.min(np.abs(x0.mean(axis=0))) > 1e5 * np.max(x0.std(axis=0))
    np.testing.assert_allclose(er.node_summary["x0_std"], x0.std(axis=0), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("n_paths, seed", [(0, 0), (1 << 32, 0), (1, -1), (1, 1 << 64)])
def test_stream_range_is_validated(fast_gains, n_paths, seed):
    s, fg, lg = fast_gains
    with pytest.raises(ValueError):
        simulate(s, fg, lg, n_paths, seed=seed)


# ---------------------------------------------------------------------------
# Deviation costing in the ensemble pass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["fast_gains", "fast_game_gains"])
def test_deviation_slopes_scale_with_the_direction(fixture, request):
    # Costing deviations leaves the ensemble's own costs untouched.  A
    # direction scaled by -2 (exact in floating point) scales every path's
    # slope by -2 and the curvature by 4, bit for bit.
    s, fg, lg = request.getfixturevalue(fixture)
    K, m = s.grid.steps, s.dims.m
    t = s.grid.nodes[:, None]
    dirs = (np.ones((K + 1, m)), np.sin(np.pi * t / s.grid.horizon) * np.ones((1, m)))
    dirs += tuple(-2.0 * v for v in dirs)
    er = simulate(s, fg, lg, 40, seed=2, store_paths=0, deviations=Deviations(follower=dirs, leader=dirs))
    plain = simulate(s, fg, lg, 40, seed=2, store_paths=0)
    ensembles_equal(er, plain)
    a, b = er.deviation_slopes, er.deviation_curvature
    assert a.shape == (40, 8) and b.shape == (8,)
    for col in (0, 1, 4, 5):
        assert np.array_equal(a[:, col + 2], -2.0 * a[:, col]), col
        assert b[col + 2] == 4.0 * b[col] > 0.0, col
    assert not np.array_equal(a[:, 0], a[:, 1])


def _population_shift_reference(s, fg, mean_state, v):
    """One leader direction at a time: re-solve the offset for the shifted mean
    leader path, forward-solve the mean response, march the follower shift."""
    K, dt, n = s.grid.steps, s.grid.dt, s.dims.n
    lead, fol = s.leader_dyn, s.follower_dyn
    chi0 = np.zeros((K + 1, n))
    for k in range(K):
        chi0[k + 1] = chi0[k] + dt * (lead.A @ chi0[k] + lead.B @ v[k])
    leads = (mean_state[:, :n] + chi0, mean_state[:, :n])
    phis = [follower_offset(s, fg.Pi, stage_table(s.grid, lead)) for lead in leads]
    dphi = phis[0].nodes - phis[1].nodes
    dphi_st = StageTable(s.grid, phis[0].values - phis[1].values)
    G = s.follower_dyn.B @ fg.control_map
    A, Pi = s.follower_dyn.A, riccati_stages(s, fg.Pi, sources(s).S2)
    dEbar = integrate_forward(lambda t, E: (A - G @ stage_at(Pi, t)) @ E - G @ stage_at(dphi_st, t),
                              np.zeros(n), s.grid).values
    shift = np.zeros((K + 1, n))
    for k in range(K):
        du = -fg.control_map @ (fg.P.values[k] @ shift[k] + fg.K.values[k] @ dEbar[k] + dphi[k])
        shift[k + 1] = shift[k] + dt * (fol.A @ shift[k] + fol.B @ du)
    return shift


@pytest.mark.parametrize("case", ["team", "game", "n2"])
def test_stacked_leader_shifts_match_one_direction_at_a_time(case, fast_gains, fast_game_gains):
    # All leader directions share one offset solve and one mean-response solve.
    s, fg, lg = {"team": fast_gains, "game": fast_game_gains}.get(case) or solve_both(
        random_scenario(7, n=2, m=2, N=4))
    tab = _build_tables(s, fg, lg)
    dirs = [v for _, v in direction_library(s.grid, s.dims.m, 3, seed=4)]
    stacked = _population_shift(s, fg, tab, _control_shift(np.stack(dirs, axis=1), tab.step0))
    for d, v in enumerate(dirs):
        ref = _population_shift_reference(s, fg, lg.mean.nodes, v)
        assert np.max(np.abs(stacked[:, d] - ref)) <= 1e-12 * np.max(np.abs(ref)), d


def test_deviation_shifts_match_per_step_loops(recursion_cases):
    # The scanned shifts march what one Euler step at a time marches.
    for name, (s, fg, lg) in recursion_cases:
        tab = _build_tables(s, fg, lg)
        dirs = tuple(v for _, v in direction_library(s.grid, s.dims.m, 3, seed=4))
        fx, _, chi0, xi, _ = _deviation_shifts(s, fg, tab, Deviations(dirs, dirs))
        v = np.stack(dirs, axis=1)
        refs = [control_shift_reference(v, tab.step_f), control_shift_reference(v, tab.step0)]
        refs.append(population_shift_loop(s, fg, tab, refs[1]))
        for label, got, ref in zip(("follower", "leader", "population"), (fx, chi0, xi), refs):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (name, label)


def _vector_game():
    """A solved game with n = m = 2 and its own random Gamma."""
    return solve_both(random_scenario(3, n=2, m=2, N=4, mode="game"))


def _reference_ensemble(s, fg, lg, n_paths, seed, dev, eps, perm=None):
    """Plain per-path, per-agent Euler-Maruyama on the draws `simulate` uses,
    built from the scenario matrices and the gain tables.  Returns per-path
    J0 (n_paths,), Ji (n_paths, N), the trajectories (x0, followers, u0,
    controls), and the cost of every deviated path, (n_paths, directions,
    len(eps)), directions in the order of `Deviations`.  With `perm`,
    follower j reads agent row perm[j - 1] of every draw."""
    K, dt, n, N = s.grid.steps, s.grid.dt, s.dims.n, s.dims.N
    ld, fd, lc, fc = s.leader_dyn, s.follower_dyn, s.leader_cost, s.follower_cost
    mX = solve_mean_state(s, assemble_extended(s, fg), lg).values
    EY = np.einsum("kij,kj->ki", lg.M.values, mX) + lg.V.values      # the mean costate
    f0, ff = time_sampled(ld.f, s.grid), time_sampled(fd.f, s.grid)
    eta0, eta = time_sampled(lc.eta, s.grid), time_sampled(fc.eta, s.grid)
    w = np.full(K + 1, dt)
    w[[0, K]] = 0.5 * dt

    def march(A, B, v):
        chi = np.zeros((K + 1, n))
        for k in range(K):
            chi[k + 1] = chi[k] + dt * (A @ chi[k] + B @ v[k])
        return chi

    def cost(y, M, u, R):
        quad = np.einsum("ki,ij,kj->k", y, M, y) + np.einsum("ki,ij,kj->k", u, R, u)
        return float(np.sum(0.5 * w * quad))

    def leader_cost(x0, xbar, u0):
        return cost(x0 - xbar @ lc.Gamma.T - eta0, lc.Q, u0, lc.R)

    def follower_cost(x, xbar, x0, u):
        return cost(x - xbar @ fc.Gamma.T - x0 @ fc.Gamma1.T - eta, fc.Q, u, fc.R)

    f_chi = [march(fd.A, fd.B, v) for v in dev.follower]
    l_chi = [march(ld.A, ld.B, v) for v in dev.leader]
    l_shift = [_population_shift_reference(s, fg, mX, v) for v in dev.leader]
    nm = NoiseModel(seed)
    rows = slice(None) if perm is None else np.concatenate(([0], perm))
    out = {"J0": [], "Ji": [], "x0": [], "followers": [], "u0": [], "controls": [], "dev": []}
    for p in range(n_paths):
        init = nm.initial(p, s.init, N)[rows]
        dW = nm.wiener(p, N + 1, K, dt)[rows]
        x0, x = init[0], init[1:].copy()
        x0s, u0s = np.empty((K + 1, n)), np.empty((K + 1, s.dims.m))
        xs, us = np.empty((N, K + 1, n)), np.empty((N, K + 1, s.dims.m))
        for k in range(K + 1):
            x0s[k], u0s[k] = x0, -lg.control_map @ (lg.P.values[k, :n, :n] @ (x0 - mX[k, :n]) + EY[k, :n])
            for j in range(N):
                xs[j, k] = x[j]
                us[j, k] = -fg.control_map @ (fg.P.values[k] @ x[j] + fg.K.values[k] @ mX[k, n:2 * n]
                                              + EY[k, 2 * n:])
            if k < K:
                x0 = x0 + dt * (ld.A @ x0 + ld.B @ u0s[k] + f0[k]) + dW[0, k] * ld.D
                for j in range(N):
                    x[j] = x[j] + dt * (fd.A @ x[j] + fd.B @ us[j, k] + ff[k]) + dW[j + 1, k] * fd.D
        xbar = xs.mean(axis=0)
        Ji = [follower_cost(xs[j], xbar, x0s, us[j]) for j in range(N)]
        dev_costs = []
        for v, chi in zip(dev.follower, f_chi):
            row = []
            for e in eps:
                x1, u1, xbar_e = xs[0] + e * chi, us[0] + e * v, xbar + e * chi / N
                own = follower_cost(x1, xbar_e, x0s, u1)
                if s.mode is Mode.TEAM:
                    own = (own + sum(follower_cost(xs[j], xbar_e, x0s, us[j]) for j in range(1, N))) / N
                row.append(own)
            dev_costs.append(row)
        for v, chi, shift in zip(dev.leader, l_chi, l_shift):
            dev_costs.append([leader_cost(x0s + e * chi, xbar + e * shift, u0s + e * v) for e in eps])
        for key, value in (("J0", leader_cost(x0s, xbar, u0s)), ("Ji", Ji), ("x0", x0s), ("followers", xs),
                           ("u0", u0s), ("controls", us), ("dev", dev_costs)):
            out[key].append(value)
    return {key: np.array(value) for key, value in out.items()}


@pytest.mark.parametrize("case", ["fast_team", "vector_game"])
def test_kernel_matches_a_plain_per_agent_loop(case, fast_gains, monkeypatch):
    # Costs, trajectories, node summaries and deviation slopes and curvatures
    # of the chunked, follower-major kernel against one agent at a time, on
    # the same draws.  The reference costs every deviated path at three
    # magnitudes; each path's cost change must be the quadratic
    # eps a_p + eps^2 b whose a_p and b the kernel reports.
    s, fg, lg = fast_gains if case == "fast_team" else _vector_game()
    K, m = s.grid.steps, s.dims.m
    dirs = tuple(v for _, v in direction_library(s.grid, m, 2, seed=3))
    dev = Deviations(dirs, dirs)
    n_paths = 6
    _chunks_of(monkeypatch, 4)
    er = simulate(s, fg, lg, n_paths, seed=19, store_paths=n_paths, deviations=dev)
    eps = np.array([0.0, -0.1, 0.2, 0.3])
    ref = _reference_ensemble(s, fg, lg, n_paths, 19, dev, eps)

    def close(got, want, rtol=1e-11):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.max(np.abs(want)))

    close(er.leader_cost_paths, ref["J0"])
    close(er.follower_cost_paths, ref["Ji"])
    delta = ref["dev"][:, :, 1:] - ref["dev"][:, :, :1]
    (a, b), residual = np.linalg.lstsq(np.stack([eps[1:], eps[1:] ** 2], axis=1),
                                       delta.reshape(-1, 3).T, rcond=None)[:2]
    close(a.reshape(n_paths, -1), er.deviation_slopes, rtol=1e-10)
    close(b.reshape(n_paths, -1), np.broadcast_to(er.deviation_curvature, (n_paths, 4)), rtol=1e-10)
    assert np.all(np.sqrt(residual) <= 1e-12 * (1.0 + np.abs(ref["dev"]).max()))
    for name in ("x0", "followers", "u0", "controls"):
        close(np.stack([getattr(p, name) for p in er.paths]), ref[name])
    xbar = ref["followers"].mean(axis=1)
    for name, values in (("x0", ref["x0"]), ("xbar", xbar), ("u0", ref["u0"])):
        close(er.node_summary[f"{name}_mean"], values.mean(axis=0))
        close(er.node_summary[f"{name}_std"], values.std(axis=0))


def test_deviations_require_the_closed_loop(fast_gains):
    # Directions are full (steps + 1, m) control tables of the closed loop.
    s, fg, lg = fast_gains
    with pytest.raises(ValueError):
        simulate(s, fg, lg, 2, seed=0, deviations=Deviations(leader=(np.ones(3),)))


def test_refined_grid_with_shared_noise_converges(fast_gains):
    # Halving the step count while drawing noise at the fine resolution keeps
    # each path on the same Brownian trajectory, so the coarse run tracks the
    # fine one path-by-path (first-order in dt).
    s, fg, lg = fast_gains
    fine = simulate(s, fg, lg, 4, seed=31, store_paths=4)
    coarse_s = dataclasses.replace(s, grid=TimeGrid(s.grid.horizon, s.grid.steps // 2))
    cs, cfg, clg = solve_both(coarse_s)
    coarse = simulate(cs, cfg, clg, 4, seed=31, store_paths=4, substeps=2)
    for pf, pc in zip(fine.paths, coarse.paths):
        gap = np.max(np.abs(pf.x0[0::2] - pc.x0))
        scale = 1.0 + np.max(np.abs(pf.x0))
        assert gap <= 0.05 * scale
    assert abs(fine.social_cost.mean - coarse.social_cost.mean) <= 0.05 * (
        1.0 + abs(fine.social_cost.mean)
    )


# ---------------------------------------------------------------------------
# Guards and bookkeeping
# ---------------------------------------------------------------------------


def test_grid_mismatch_is_rejected(fast_gains):
    s, fg, lg = fast_gains
    other = dataclasses.replace(s, grid=TimeGrid(s.grid.horizon, s.grid.steps // 2))
    _, fg2, lg2 = solve_both(other)
    with pytest.raises(GridMismatchError):
        simulate(s, fg2, lg2, 1, seed=0)


def test_path_count_validation(fast_gains):
    s, fg, lg = fast_gains
    with pytest.raises(ValueError):
        simulate(s, fg, lg, 0, seed=0)


def test_store_paths_is_clamped(fast_gains):
    s, fg, lg = fast_gains
    er = simulate(s, fg, lg, 3, seed=0, store_paths=64)
    assert len(er.paths) == 3
    none = simulate(s, fg, lg, 3, seed=0, store_paths=0)
    assert none.paths == ()


def test_default_chunk_size_positive():
    assert default_chunk_size(30, 1000, 10_000) >= 1
    assert default_chunk_size(1, 2, 1) >= 1


def test_mean_state_starts_at_declared_means(fast_gains):
    s, fg, lg = fast_gains
    es = assemble_extended(s, fg)
    mean = solve_mean_state(s, es, lg)
    n = s.dims.n
    assert np.array_equal(mean.values[0, :n], s.leader_mean0)
    assert np.array_equal(mean.values[0, n:2 * n], s.follower_mean0)
    assert np.array_equal(mean.values[0, 2 * n:], np.zeros(n))
