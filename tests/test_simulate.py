"""Tests for the SIC decoder and the Monte Carlo engine.

The statistical checks run against fixed seeds, so the suite is deterministic;
under a fresh seed each 3-sigma comparison would fail spuriously about 0.3%
of the time.
"""

import csv
import io
import math
import tracemalloc
from collections import Counter
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from noma_aloha import simulate
from noma_aloha.model import (
    PowerProfile,
    Scenario,
    average_throughput,
    region_bounds,
    success_probability,
)
from noma_aloha.simulate import SimConfig, SimStats, run_simulation, sic_decode
from support import (
    all_pairs,
    boundary_scenarios,
    random_profile,
    random_scenario,
    table_rates,
    trace_tally,
    trinomial_pmf,
)

DEFAULTS = Scenario(m=10, v1=4.0, v2=1.5, gamma=1.5)
WIDE = Scenario(m=10, v1=4.0, v2=1.5, gamma=0.3)


def full_decode_tables(s):
    """Reference decode tables: sic_decode on every count pair, no early exit."""
    size = s.m + 1
    high_ok = np.zeros((size, size), dtype=bool)
    low_ok = np.zeros((size, size), dtype=bool)
    rate = np.zeros((size, size))
    for n1, n2 in all_pairs(s.m):
        out = sic_decode(s, n1, n2)
        high_ok[n1, n2] = out.high_decoded
        low_ok[n1, n2] = out.low_decoded
        rate[n1, n2] = out.sum_rate
    return high_ok, low_ok, rate


def replication_streams(seed, rep):
    """The three generators of one replication: tagged user, high, low."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence([seed, rep]).spawn(3)]


def draw_slots(streams, prof, m, n):
    """n slots from the three generators: the tagged user's flags and the
    counts n1, n2, tagged user included.  The m - 1 others transmit at high
    power w.p. tau1 and, given not high, at low power w.p. tau2 / (1 - tau1)."""
    tag_rng, high_rng, low_rng = streams
    u = tag_rng.random(n)
    tag_high = u < prof.tau1
    tag_low = ~tag_high & (u < prof.tau1 + prof.tau2)
    q = 0.0 if prof.tau1 == 1.0 else min(1.0, prof.tau2 / (1.0 - prof.tau1))
    others_high = high_rng.binomial(m - 1, prof.tau1, size=n)
    others_low = low_rng.binomial(m - 1 - others_high, q)
    return tag_high, tag_low, others_high + tag_high, others_low + tag_low


def chunked_reference(s, prof, cfg, chunk):
    """The simulator's arithmetic with fresh arrays for every chunk of
    ``chunk`` slots and full-grid decode tables: what the simulator must
    reproduce bit for bit."""
    high_tab, low_tab, rate_tab = full_decode_tables(s)
    p_reps, th_reps = [], []
    counts = Counter()
    for rep in range(cfg.replications):
        streams = replication_streams(cfg.seed, rep)
        success_total = rate_total = 0.0
        for done in range(0, cfg.slots, chunk):
            tag_high, tag_low, n1, n2 = draw_slots(
                streams, prof, s.m, min(chunk, cfg.slots - done)
            )
            success_total += np.count_nonzero(
                (tag_high & high_tab[n1, n2]) | (tag_low & low_tab[n1, n2])
            )
            rate_total += float(rate_tab[n1, n2].sum())
            counts.update(zip(n1.tolist(), n2.tolist()))
        p_reps.append(success_total / cfg.slots)
        th_reps.append(rate_total / cfg.slots)
    root_r = math.sqrt(cfg.replications)
    stats = SimStats(
        p_success_hat=float(np.mean(p_reps)),
        throughput_hat=float(np.mean(th_reps)),
        stderr_p=float(np.std(p_reps, ddof=1) / root_r),
        stderr_th=float(np.std(th_reps, ddof=1) / root_r),
    )
    return stats, counts


def csv_trace(s, prof, cfg):
    """The trace file's bytes as csv.writer writes them: one unchunked draw
    per replication, each slot's outcome from sic_decode."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("slot", "n1", "n2", "high_decoded", "low_decoded", "sum_rate"))
    outcomes = {}
    for rep in range(cfg.replications):
        _, _, n1s, n2s = draw_slots(replication_streams(cfg.seed, rep), prof, s.m, cfg.slots)
        for slot, pair in enumerate(zip(n1s.tolist(), n2s.tolist())):
            if pair not in outcomes:
                outcomes[pair] = sic_decode(s, *pair)
            out = outcomes[pair]
            writer.writerow(
                (
                    slot,
                    *pair,
                    "true" if out.high_decoded else "false",
                    "true" if out.low_decoded else "false",
                    format(out.sum_rate, ".17g"),
                )
            )
    return buf.getvalue().encode("utf-8")


class TestSicDecode:
    def test_both_layers_decode(self):
        out = sic_decode(DEFAULTS, 1, 1)
        assert out.high_decoded and out.low_decoded
        assert out.sum_rate == pytest.approx(
            math.log2(2.6) + math.log2(2.5), rel=1e-12
        )

    def test_high_collision_decodes_nothing(self):
        out = sic_decode(DEFAULTS, 2, 0)
        assert not out.high_decoded and not out.low_decoded
        assert out.sum_rate == 0.0

    def test_empty_slot(self):
        out = sic_decode(DEFAULTS, 0, 0)
        assert not out.high_decoded and not out.low_decoded
        assert out.sum_rate == 0.0

    def test_low_layer_blocked_by_high_failure(self):
        # two high users jam each other, so the lone low user stays buried
        out = sic_decode(DEFAULTS, 2, 1)
        assert not out.high_decoded and not out.low_decoded
        assert out.sum_rate == 0.0

    def test_high_layer_rate_counts_when_low_layer_fails(self):
        # at gamma=0.3, (n1=1, n2=4): the high signal clears 4/7 >= 0.3, but
        # the first low signal sees 1.5/5.5 < 0.3 - the slot still earns the
        # high layer's rate
        s = Scenario(m=10, v1=4.0, v2=1.5, gamma=0.3)
        out = sic_decode(s, 1, 4)
        assert out.high_decoded and not out.low_decoded
        assert out.sum_rate == pytest.approx(table_rates(s)[1, 4, "high"], rel=1e-15)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            sic_decode(DEFAULTS, 6, 5)
        with pytest.raises(ValueError):
            sic_decode(DEFAULTS, -1, 0)

    def test_sum_rate_matches_conditional_rates(self):
        # the decoder against the rate column the model sums
        for s in (DEFAULTS, Scenario(m=10, v1=4.0, v2=1.5, gamma=0.3)):
            b = region_bounds(s)
            rates = table_rates(s)
            for n1, n2 in all_pairs(s.m):
                out = sic_decode(s, n1, n2)
                assert out.high_decoded == b.in_high_region(n1, n2)
                assert out.low_decoded == b.in_low_region(n1, n2)
                expected = rates.get((n1, n2, "high"), 0.0) + rates.get((n1, n2, "low"), 0.0)
                assert out.sum_rate == pytest.approx(expected, rel=0, abs=1e-12)


def spy_decoder(monkeypatch):
    """Record the pairs ``sic_decode`` is called on, one list per chunk (per
    ``_decode_drawn`` call)."""
    chunks = []
    real_decode, real_drawn = simulate.sic_decode, simulate._decode_drawn

    def decode(s, n1, n2):
        chunks[-1].append((n1, n2))
        return real_decode(s, n1, n2)

    def drawn(*args):
        chunks.append([])
        return real_drawn(*args)

    monkeypatch.setattr(simulate, "sic_decode", decode)
    monkeypatch.setattr(simulate, "_decode_drawn", drawn)
    return chunks


class TestDrawnPairDecoding:
    """Each chunk decodes only the count pairs it drew, each row up to its
    first pair that decodes nothing; every slot's outcome must still be what
    sic_decode gives for its pair."""

    # wide enough that most pairs of a small population are drawn
    PROF = PowerProfile(0.3, 0.3)
    CFG = SimConfig(slots=1_000, seed=71, replications=2)

    def assert_matches_references(self, s, path):
        with mock.patch.object(simulate, "_CHUNK_SLOTS", 300):
            stats = run_simulation(s, self.PROF, self.CFG, trace_path=path)
        assert path.read_bytes() == csv_trace(s, self.PROF, self.CFG), s
        want, want_counts = chunked_reference(s, self.PROF, self.CFG, chunk=300)
        assert stats == want, s
        assert trace_tally(path) == want_counts, s

    def test_matches_references_on_random_scenarios(self, tmp_path):
        rng = np.random.default_rng(404)
        for _ in range(200):
            s = random_scenario(rng, m_max=30, gamma_lo=0.05)
            self.assert_matches_references(s, tmp_path / "trace.csv")

    @given(boundary_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_matches_references_on_sinr_boundaries(self, tmp_path_factory, s):
        self.assert_matches_references(s, tmp_path_factory.mktemp("trace") / "trace.csv")

    def test_each_chunk_decodes_only_its_drawn_pairs_once(self, tmp_path, monkeypatch):
        # 2 500 slots in chunks of 700, two replications: eight chunks
        cfg = SimConfig(slots=2_500, seed=73, replications=2)
        prof = PowerProfile(0.2, 0.15)
        monkeypatch.setattr(simulate, "_CHUNK_SLOTS", 700)
        chunks = spy_decoder(monkeypatch)
        path = tmp_path / "trace.csv"
        run_simulation(WIDE, prof, cfg, trace_path=path)
        tally = trace_tally(path)
        assert len(chunks) == 8
        for rep in range(cfg.replications):
            _, _, n1s, n2s = draw_slots(replication_streams(cfg.seed, rep), prof, WIDE.m, cfg.slots)
            for k, lo in enumerate(range(0, cfg.slots, 700)):
                calls = chunks[4 * rep + k]
                drawn = set(zip(n1s[lo : lo + 700].tolist(), n2s[lo : lo + 700].tolist()))
                assert len(set(calls)) == len(calls), (rep, k)
                assert set(calls) <= drawn, (rep, k)
                assert all(pair in tally for pair in calls)

    def test_low_gamma_decodes_no_more_pairs_than_it_draws(self, tmp_path, monkeypatch):
        # the decodable region here holds tens of thousands of pairs, and a
        # run at tau = 0.01 draws about a hundred of them
        s = Scenario(m=300, v1=4.0, v2=1.5, gamma=1e-3)
        calls = []

        def counted(s, n1, n2):
            calls.append((n1, n2))
            return sic_decode(s, n1, n2)

        monkeypatch.setattr(simulate, "sic_decode", counted)
        path = tmp_path / "trace.csv"
        cfg = SimConfig(slots=20_000, seed=79)
        run_simulation(s, PowerProfile(0.01, 0.01), cfg, trace_path=path)
        assert len(calls) <= len(trace_tally(path))


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(slots=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(slots=10, seed=1, replications=0)
        with pytest.raises(ValueError):
            SimConfig(slots=10, seed=-1)

    def test_field_names(self):
        # the config holds what a run reads and the stats what callers read:
        # the per-pair tallies live in the trace file
        assert [f.name for f in fields(SimConfig)] == ["slots", "seed", "replications"]
        assert [f.name for f in fields(SimStats)] == [
            "p_success_hat", "throughput_hat", "stderr_p", "stderr_th"
        ]


class TestRunSimulation:
    def test_silent_profile_yields_zeros(self):
        stats = run_simulation(
            DEFAULTS, PowerProfile(0.0, 0.0), SimConfig(slots=1000, seed=1)
        )
        assert stats.p_success_hat == 0.0
        assert stats.throughput_hat == 0.0

    def test_single_user_always_high_is_deterministic(self):
        s = Scenario(m=1, v1=4.0, v2=1.5, gamma=1.5)
        stats = run_simulation(
            s, PowerProfile(1.0, 0.0), SimConfig(slots=10_000, seed=3, replications=4)
        )
        assert stats.throughput_hat == pytest.approx(math.log2(5.0), rel=1e-12)
        assert stats.p_success_hat == 1.0
        assert stats.stderr_th == 0.0

    def test_seed_determinism(self, tmp_path):
        cfg = SimConfig(slots=20_000, seed=99, replications=3)
        prof = PowerProfile(0.15, 0.1)
        a = run_simulation(DEFAULTS, prof, cfg, trace_path=tmp_path / "a.csv")
        b = run_simulation(DEFAULTS, prof, cfg, trace_path=tmp_path / "b.csv")
        assert a.p_success_hat == b.p_success_hat
        assert a.throughput_hat == b.throughput_hat
        assert a.stderr_p == b.stderr_p
        assert trace_tally(tmp_path / "a.csv") == trace_tally(tmp_path / "b.csv")

    def test_different_seeds_differ(self):
        prof = PowerProfile(0.15, 0.1)
        a = run_simulation(DEFAULTS, prof, SimConfig(slots=20_000, seed=1))
        b = run_simulation(DEFAULTS, prof, SimConfig(slots=20_000, seed=2))
        assert a.p_success_hat != b.p_success_hat

    def test_replications_use_distinct_streams(self):
        prof = PowerProfile(0.2, 0.2)
        stats = run_simulation(
            DEFAULTS, prof, SimConfig(slots=5_000, seed=11, replications=5)
        )
        assert stats.stderr_p > 0.0
        assert stats.stderr_th > 0.0

    def test_matches_analytics_within_three_sigma(self):
        prof = PowerProfile(0.1, 0.1)
        stats = run_simulation(
            DEFAULTS, prof, SimConfig(slots=100_000, seed=7, replications=8)
        )
        p = success_probability(DEFAULTS, prof)
        th = average_throughput(DEFAULTS, prof)
        assert abs(stats.p_success_hat - p) <= 3.0 * stats.stderr_p
        assert abs(stats.throughput_hat - th) <= 3.0 * stats.stderr_th

    def test_randomized_pairs_match_analytics_within_three_sigma(self):
        # 20 random (scenario, profile) pairs; pairs are screened on the
        # analytic value alone so each quantity is either exactly zero or
        # estimable (>= 50 expected events) at this slot budget
        slots, reps = 10_000, 12
        budget = slots * reps
        rng = np.random.default_rng(700)
        for k in range(20):
            while True:
                s = random_scenario(rng, m_max=8)
                prof = random_profile(rng)
                p = success_probability(s, prof)
                if p == 0.0 or p * budget >= 50.0:
                    break
            th = average_throughput(s, prof)
            stats = run_simulation(
                s, prof, SimConfig(slots=slots, seed=700_000 + k, replications=reps)
            )
            if p == 0.0:
                assert stats.p_success_hat == 0.0
                assert stats.throughput_hat == 0.0
                continue
            assert abs(stats.p_success_hat - p) <= 3.0 * stats.stderr_p, (s, prof)
            assert abs(stats.throughput_hat - th) <= 3.0 * stats.stderr_th, (s, prof)

    def test_reused_chunk_buffers_match_fresh_arrays(self, tmp_path, monkeypatch):
        # 2 500 slots in chunks of 700: three full chunks and a short one
        cfg = SimConfig(slots=2_500, seed=41, replications=3)
        prof = PowerProfile(0.2, 0.15)
        monkeypatch.setattr(simulate, "_CHUNK_SLOTS", 700)
        path = tmp_path / "trace.csv"
        stats = run_simulation(WIDE, prof, cfg, trace_path=path)
        want, want_counts = chunked_reference(WIDE, prof, cfg, chunk=700)
        assert stats == want
        assert trace_tally(path) == want_counts
        # chunking does not change the draws
        _, unchunked_counts = chunked_reference(WIDE, prof, cfg, chunk=cfg.slots)
        assert trace_tally(path) == unchunked_counts

    def test_pair_counts_cover_all_slots(self, tmp_path):
        cfg = SimConfig(slots=7_500, seed=13, replications=2)
        path = tmp_path / "trace.csv"
        run_simulation(DEFAULTS, PowerProfile(0.3, 0.2), cfg, trace_path=path)
        assert trace_tally(path).total() == 15_000

    @pytest.mark.parametrize(
        "tau1, tau2",
        # 1 - tau1 == 0; tau2 / (1 - tau1) rounds to 1.0000000000000002; idle 0
        [(1.0, 0.0), (0.9, 0.1), (0.1, 0.9)],
    )
    def test_simplex_edge_profiles_leave_nobody_idle(self, tmp_path, tau1, tau2):
        cfg = SimConfig(slots=5_000, seed=23, replications=2)
        path = tmp_path / "trace.csv"
        run_simulation(WIDE, PowerProfile(tau1, tau2), cfg, trace_path=path)
        tally = trace_tally(path)
        assert tally.total() == 10_000
        assert all(n1 + n2 == WIDE.m for n1, n2 in tally)

    def test_large_population_matches_analytics_within_three_sigma(self):
        # m = 1e5 with one expected transmitter per power level and slot; the
        # tagged user sees about four successes in all
        s = Scenario(m=100_000, v1=4.0, v2=1.5, gamma=1.3)
        prof = PowerProfile(1e-5, 1e-5)
        p = success_probability(s, prof)
        th = average_throughput(s, prof)
        cfg = SimConfig(slots=100_000, seed=2026, replications=8)
        tracemalloc.start()
        try:
            stats = run_simulation(s, prof, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, peak
        assert abs(stats.p_success_hat - p) <= 3.0 * stats.stderr_p
        assert abs(stats.throughput_hat - th) <= 3.0 * stats.stderr_th

    def test_empirical_frequencies_match_pmf(self, tmp_path):
        # cells with expected count >= 10; chi-square style screen
        prof = PowerProfile(0.1, 0.1)
        cfg = SimConfig(slots=200_000, seed=17, replications=5)
        path = tmp_path / "trace.csv"
        run_simulation(DEFAULTS, prof, cfg, trace_path=path)
        tally = trace_tally(path)
        n = cfg.slots * cfg.replications
        for n1, n2 in all_pairs(DEFAULTS.m):
            p = trinomial_pmf(DEFAULTS.m, n1, n2, prof.tau1, prof.tau2)
            if n * p < 10.0:
                continue
            freq = tally[n1, n2] / n
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(freq - p) <= 3.0 * sigma, (n1, n2)


class TestSlotTrace:
    def test_trace_file_layout(self, tmp_path):
        path = tmp_path / "trace.csv"
        cfg = SimConfig(slots=64, seed=21, replications=2)
        prof = PowerProfile(0.3, 0.3)
        run_simulation(DEFAULTS, prof, cfg, trace_path=path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["slot", "n1", "n2", "high_decoded", "low_decoded", "sum_rate"]
        body = rows[1:]
        assert len(body) == 128
        # slot index restarts for the second replication
        assert [int(r[0]) for r in body[:64]] == list(range(64))
        assert [int(r[0]) for r in body[64:]] == list(range(64))
        for r in body:
            n1, n2 = int(r[1]), int(r[2])
            assert 0 <= n1 + n2 <= DEFAULTS.m
            assert r[3] in ("true", "false") and r[4] in ("true", "false")
            out = sic_decode(DEFAULTS, n1, n2)
            assert float(r[5]) == pytest.approx(out.sum_rate, rel=1e-15, abs=1e-15)
            assert (r[3] == "true") == out.high_decoded
            assert (r[4] == "true") == out.low_decoded

    def test_trace_bytes_match_csv_writer_across_chunks_and_blocks(
        self, tmp_path, monkeypatch
    ):
        block = simulate._TRACE_BLOCK_ROWS
        monkeypatch.setattr(simulate, "_CHUNK_SLOTS", 2 * block + 5)
        cfg = SimConfig(slots=3 * block + 17, seed=31, replications=2)
        prof = PowerProfile(0.2, 0.15)
        path = tmp_path / "trace.csv"
        run_simulation(WIDE, prof, cfg, trace_path=path)

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("slot", "n1", "n2", "high_decoded", "low_decoded", "sum_rate"))
        outcomes = {}
        for rep in range(cfg.replications):
            # one unchunked draw per replication
            _, _, n1s, n2s = draw_slots(
                replication_streams(cfg.seed, rep), prof, WIDE.m, cfg.slots
            )
            for slot, pair in enumerate(zip(n1s.tolist(), n2s.tolist())):
                if pair not in outcomes:
                    outcomes[pair] = sic_decode(WIDE, *pair)
                out = outcomes[pair]
                writer.writerow(
                    (
                        slot,
                        *pair,
                        "true" if out.high_decoded else "false",
                        "true" if out.low_decoded else "false",
                        format(out.sum_rate, ".17g"),
                    )
                )
        assert path.read_bytes() == buf.getvalue().encode("utf-8")

    @pytest.mark.parametrize(
        "chunk, block, slots",
        [
            # 10, 100, 10_000 and 100_000 all fall inside blocks
            (3001, 13, 100_050),
            # ... all start a block
            (3000, 5, 100_050),
            # 10 inside a block; 100, 10_000 and 100_000 start a chunk
            (100, 7, 100_050),
            # 10 and 100 start a chunk
            (10, 4, 120),
        ],
    )
    def test_trace_bytes_match_csv_writer_where_slot_digits_grow(
        self, tmp_path, monkeypatch, chunk, block, slots
    ):
        monkeypatch.setattr(simulate, "_CHUNK_SLOTS", chunk)
        monkeypatch.setattr(simulate, "_TRACE_BLOCK_ROWS", block)
        cfg = SimConfig(slots=slots, seed=37, replications=1)
        prof = PowerProfile(0.2, 0.15)
        path = tmp_path / "trace.csv"
        run_simulation(WIDE, prof, cfg, trace_path=path)
        assert path.read_bytes() == csv_trace(WIDE, prof, cfg)

    def test_trace_of_one_slot(self, tmp_path):
        cfg = SimConfig(slots=1, seed=3, replications=2)
        prof = PowerProfile(0.3, 0.3)
        path = tmp_path / "trace.csv"
        run_simulation(DEFAULTS, prof, cfg, trace_path=path)
        want = csv_trace(DEFAULTS, prof, cfg)
        assert path.read_bytes() == want
        assert want.count(b"\n0,") == 2

    @pytest.mark.parametrize(
        "s, prof",
        [
            # two-digit counts, collisions that decode nothing (sum rate 0)
            # and 17-digit sum rates: row tails of many widths
            (Scenario(m=12, v1=4.0, v2=1.5, gamma=0.3), PowerProfile(0.4, 0.4)),
            (WIDE, PowerProfile(0.45, 0.45)),
            (WIDE, PowerProfile(0.05, 0.05)),
        ],
    )
    def test_trace_bytes_match_csv_writer_across_tail_widths(self, tmp_path, s, prof):
        cfg = SimConfig(slots=20_000, seed=43, replications=2)
        path = tmp_path / "trace.csv"
        run_simulation(s, prof, cfg, trace_path=path)
        want = csv_trace(s, prof, cfg)
        assert path.read_bytes() == want
        tails = {row.split(b",", 1)[1] for row in want.splitlines()[1:]}
        assert any(t.endswith(b",false,false,0") for t in tails)
        assert max(map(len, tails)) - min(map(len, tails)) >= 15

    def test_trace_buffers_stay_per_block(self, tmp_path):
        # one chunk of 2**18 slots: a buffer for the whole chunk's rows
        # would take more than 7 MiB (over 28 bytes a row)
        cfg = SimConfig(slots=1 << 18, seed=47, replications=1)
        prof = PowerProfile(0.2, 0.15)
        run_simulation(WIDE, prof, cfg)

        def peak(trace_path):
            tracemalloc.start()
            try:
                run_simulation(WIDE, prof, cfg, trace_path=trace_path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        untraced = peak(None)
        traced = peak(tmp_path / "trace.csv")
        assert traced - untraced < 2 * 2**20, (traced, untraced)


def spy_tallies(monkeypatch, refuse=()):
    """Count the chunks tallied by a count table (np.bincount) and by a sort
    (np.unique); a name in ``refuse`` fails its call before it allocates."""
    calls = Counter()
    for name in ("bincount", "unique"):
        real = getattr(np, name)

        def counted(keys, *args, _name=name, _real=real, **kwargs):
            assert _name not in refuse, (_name, int(keys.max()), len(keys))
            calls[_name] += 1
            return _real(keys, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return calls


class TestPairTally:
    """A chunk tallies its count pairs with a count table indexed by key
    while the key range is at most the chunk's slot count, else by a sort."""

    def test_sort_counts_and_traces_what_the_count_table_does(self, tmp_path, monkeypatch):
        cfg = SimConfig(slots=2_000, seed=53, replications=2)
        prof = PowerProfile(0.4, 0.4)
        calls = spy_tallies(monkeypatch)
        by_table = tmp_path / "by_table.csv"
        run_simulation(WIDE, prof, cfg, trace_path=by_table)
        assert calls == {"bincount": 2}
        # keys reach 40 or more in every chunk of 30 slots
        monkeypatch.setattr(simulate, "_CHUNK_SLOTS", 30)
        calls.clear()
        path = tmp_path / "trace.csv"
        untraced = run_simulation(WIDE, prof, cfg)
        traced = run_simulation(WIDE, prof, cfg, trace_path=path)
        assert calls == {"unique": 2 * 2 * 67}
        assert traced == untraced
        # the chunk size moves the float sums' last bits, not the counts
        assert trace_tally(path) == trace_tally(by_table)
        assert path.read_bytes() == csv_trace(WIDE, prof, cfg)

    def test_wide_keys_take_the_sort_without_a_key_sized_table(self, tmp_path, monkeypatch):
        # keys reach about 1e9 here: a count table would take about 7 GB
        s = Scenario(m=100_000, v1=4.0, v2=1.5, gamma=1.3)
        cfg = SimConfig(slots=5_000, seed=61)
        calls = spy_tallies(monkeypatch, refuse=("bincount",))
        path = tmp_path / "trace.csv"
        for trace_path in (None, path):
            tracemalloc.start()
            try:
                run_simulation(s, PowerProfile(0.3, 0.3), cfg, trace_path=trace_path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, (trace_path, peak)
        assert calls == {"unique": 2}
        assert trace_tally(path).total() == cfg.slots

    @pytest.mark.parametrize("m", [2 * 10**10, 4 * 10**18])
    def test_huge_populations_tally_the_pairs_they_draw(self, m, tmp_path, monkeypatch):
        # n1 * width + n2 overflows int64 at both m, so the (n1, n2) rows
        # are sorted instead
        prof = PowerProfile(0.5, 0.3)
        cfg = SimConfig(slots=1_000, seed=3, replications=2)
        calls = spy_tallies(monkeypatch, refuse=("bincount",))
        path = tmp_path / "trace.csv"
        run_simulation(Scenario(m, 4.0, 1.5, 1.5), prof, cfg, trace_path=path)
        assert calls == {"unique": 2}
        want = Counter()
        for rep in range(cfg.replications):
            _, _, n1, n2 = draw_slots(replication_streams(cfg.seed, rep), prof, m, cfg.slots)
            want.update(zip(n1.tolist(), n2.tolist()))
        assert trace_tally(path) == want
        assert min(n1 for n1, _ in want) > 0.49 * m
