"""Slot-level Monte Carlo simulation of the two-power random access protocol.

Per slot, every user independently picks an action (idle / high / low); the
receiver then runs sequential SIC over the slot.  Channel inversion makes
every received power exactly v1 or v2, so decoding outcomes depend on the
transmitter counts alone, and the simulator draws the counts, not the users:
one uniform gives the tagged user's action, and two binomials give how many
of the other m - 1 users transmit at high and at low power.  A slot
therefore costs the same at every m.

Slots are drawn in chunks.  Each chunk tallies its count pairs by one key
per slot, which also gives every slot the id of its pair among the pairs
the chunk drew, and ``sic_decode`` runs on those pairs only.  Adding a
transmitter never raises the first (weakest) SINR of a layer, and a layer
decodes fully exactly when its first signal clears gamma, so in each n1 row
the pairs other than (0, 0) that decode anything come first: a row's drawn
pairs are decoded in order up to the first that decodes nothing, and the
rest decode nothing.  Each slot reads its outcome by its pair id.  The
optional per-slot trace is assembled as bytes by numpy, a block of rows at a
time: each row is gathered by pair id from a per-chunk table of the drawn
pairs' encoded row tails, numbered from a table of four-digit ASCII groups,
and written without its zero bytes, which are the padding and the slot
number's leading zeros.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import CountPair, PowerProfile, Scenario, sinr_high, sinr_low

__all__ = [
    "SlotOutcome",
    "SimConfig",
    "SimStats",
    "sic_decode",
    "run_simulation",
]

TRACE_HEADER = ("slot", "n1", "n2", "high_decoded", "low_decoded", "sum_rate")

_CHUNK_SLOTS = 1 << 18
_TRACE_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SlotOutcome:
    """Decoding result of one slot: counts, per-layer flags and decoded sum
    rate.  A layer decodes all of its users or none."""

    n1: int
    n2: int
    high_decoded: bool
    low_decoded: bool
    sum_rate: float


@dataclass(frozen=True)
class SimConfig:
    slots: int
    seed: int
    replications: int = 1

    def __post_init__(self):
        if self.slots < 1:
            raise ValueError("slots must be at least 1")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass
class SimStats:
    """Monte Carlo estimates with standard errors across replications."""

    p_success_hat: float
    throughput_hat: float
    stderr_p: float
    stderr_th: float


def sic_decode(s: Scenario, n1: int, n2: int) -> SlotOutcome:
    """Sequential SIC over one slot: high-power signals first, each needing
    SINR >= gamma, stopping at the first failure; the low layer is attempted
    only once the high layer is fully cancelled.  Only decoded users
    contribute to the sum rate."""
    if n1 < 0 or n2 < 0 or n1 + n2 > s.m:
        raise ValueError(f"counts ({n1}, {n2}) invalid for {s.m} users")
    pair = CountPair(n1, n2)
    sum_rate = 0.0
    decoded_high = 0
    for i in range(1, n1 + 1):
        snr = sinr_high(s, i, pair)
        if snr < s.gamma:
            break
        sum_rate += math.log2(1.0 + snr)
        decoded_high += 1
    high_decoded = n1 >= 1 and decoded_high == n1
    decoded_low = 0
    if n2 >= 1 and (n1 == 0 or high_decoded):
        for j in range(1, n2 + 1):
            snr = sinr_low(s, j, pair)
            if snr < s.gamma:
                break
            sum_rate += math.log2(1.0 + snr)
            decoded_low += 1
    low_decoded = n2 >= 1 and decoded_low == n2
    return SlotOutcome(n1, n2, high_decoded, low_decoded, sum_rate)


def _decode_drawn(s: Scenario, pairs):
    """Layer flags and decoded sum rates of the drawn count pairs, given as
    (n1, n2) sorted by n1 and then by n2.  Each row is decoded up to its
    first pair other than (0, 0) that decodes nothing; the pairs after it
    keep the all-zero outcome."""
    high = np.zeros(len(pairs), dtype=bool)
    low = np.zeros(len(pairs), dtype=bool)
    rate = np.zeros(len(pairs))
    done_row = -1
    for i, (n1, n2) in enumerate(pairs):
        if n1 == done_row:
            continue
        out = sic_decode(s, n1, n2)
        high[i], low[i], rate[i] = out.high_decoded, out.low_decoded, out.sum_rate
        if not (out.high_decoded or out.low_decoded) and n1 + n2 > 0:
            done_row = n1
    return high, low, rate


def _trace_suffix(n1: int, n2: int, high: bool, low: bool, rate: float) -> bytes:
    """The "n1,n2,high_decoded,low_decoded,sum_rate" tail of a trace row."""
    high = "true" if high else "false"
    low = "true" if low else "false"
    return f"{n1},{n2},{high},{low},{format(rate, '.17g')}\n".encode()


@lru_cache(maxsize=1)
def _ascii_groups():
    """ASCII digits of 0..9999 with leading zeros, "0000".."9999", each
    group's four bytes read as one uint32."""
    k = np.arange(10_000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1) + ord("0")
    return digits.astype(np.uint8).view(np.uint32).ravel()


def _write_trace(fh, tails, pos, first):
    """Write the trace rows of slots first, first + 1, ...; the row of slot
    first + i ends with tails[pos[i]].

    Each tail takes one row of a byte table: room for the slot number in
    whole four-digit groups, a comma, the tail and zero padding.  Per block
    of slots the rows are gathered through a void view (one copy per row),
    the slot digits are filled in a group at a time and their leading zeros
    set to 0.  Digits and tails are ASCII, so the rows' nonzero bytes, written
    at once, are the trace without its padding.
    """
    groups = -(-len(str(first + len(pos) - 1)) // 4)
    digits = 4 * groups
    width = digits + 1 + max(map(len, tails))
    table = np.zeros((len(tails), width), np.uint8)
    table[:, digits] = ord(",")
    table[:, digits + 1 :] = (
        np.array(tails, dtype=f"S{width - digits - 1}").view(np.uint8).reshape(len(tails), -1)
    )
    table = table.view(f"V{width}").ravel()
    ascii_groups = _ascii_groups()
    for lo in range(0, len(pos), _TRACE_BLOCK_ROWS):
        at = pos[lo : lo + _TRACE_BLOCK_ROWS]
        start = first + lo
        rows = table[at].view(np.uint8).reshape(len(at), width)
        field = rows[:, :digits].view(np.uint32)
        slots = np.arange(start, start + len(at))
        for g in range(groups - 1, 0, -1):
            slots, group = np.divmod(slots, 10_000)
            field[:, g] = ascii_groups.take(group)
        field[:, 0] = ascii_groups.take(slots)
        # the slots below 10**k, a leading run of the block, have a leading
        # zero in the k-th column left of the last digit; for 10**k <= start
        # that run is empty
        for k in range(len(str(start)), digits):
            rows[: 10**k - start, digits - 1 - k] = 0
        fh.write(rows[rows != 0])


def run_simulation(
    s: Scenario,
    prof: PowerProfile,
    cfg: SimConfig,
    trace_path=None,
) -> SimStats:
    """Simulate cfg.slots slots for each replication and aggregate.

    Replication r spawns three generators from SeedSequence([cfg.seed, r]).
    The first draws one uniform per slot for the tagged user's action; the
    second draws n1, the other m - 1 users at high power,
    Binomial(m - 1, tau1); the third draws n2, the rest at low power,
    Binomial(m - 1 - n1, tau2 / (1 - tau1)).  Each generator is consumed in
    slot order, so the draws do not depend on the chunk size, replications
    are independent streams, and the whole run is reproducible bit for bit.
    The success estimate follows the tagged user (all users are
    exchangeable).
    ``trace_path`` optionally receives one CSV record per simulated slot
    (slot index restarts at 0 in each replication; replications are written
    back to back).
    """
    t1 = prof.tau1
    t12 = prof.tau1 + prof.tau2
    # P(low | not high); on the simplex edge the ratio can round above 1
    q = min(prof.tau2 / (1.0 - t1), 1.0) if t1 < 1.0 else 0.0
    others = s.m - 1
    p_reps = np.empty(cfg.replications)
    th_reps = np.empty(cfg.replications)

    trace_file = None
    if trace_path is not None:
        trace_file = open(trace_path, "wb")
        trace_file.write((",".join(TRACE_HEADER) + "\n").encode())

    try:
        for rep in range(cfg.replications):
            tag_rng, high_rng, low_rng = map(
                np.random.default_rng, np.random.SeedSequence([cfg.seed, rep]).spawn(3)
            )
            success_total = 0.0
            rate_total = 0.0
            done = 0
            while done < cfg.slots:
                n = min(_CHUNK_SLOTS, cfg.slots - done)
                u = tag_rng.random(n)
                tag_high = u < t1
                tag_low = (u < t12) ^ tag_high  # t1 <= t12, so u < t1 implies u < t12
                n1 = high_rng.binomial(others, t1, n)
                n2 = low_rng.binomial(others - n1, q)
                n1 += tag_high
                n2 += tag_low
                # one key per slot, n1 * width + n2, which sorts as the pairs
                # do; keys grow with m and tau, so a count table indexed by
                # key is used only while all (max n1 + 1) * width keys,
                # counted in Python ints, fit the chunk
                width = int(n2.max()) + 1
                if (int(n1.max()) + 1) * width <= n:
                    keys = n1 * width + n2
                    freq = np.bincount(keys)
                    seen = np.flatnonzero(freq)
                    # a pair's id is the number of drawn keys below its own
                    pos = (np.cumsum(freq > 0, dtype=np.int32) - 1)[keys]
                    pairs = [divmod(k, width) for k in seen.tolist()]
                else:
                    # else the sorted (n1, n2) rows, which no key can overflow
                    rows, pos = np.unique(
                        np.stack((n1, n2), axis=1), axis=0, return_inverse=True
                    )
                    pairs = [tuple(row) for row in rows.tolist()]
                    pos = pos.reshape(-1)
                high, low, rate = _decode_drawn(s, pairs)
                success = (tag_high & high.take(pos)) | (tag_low & low.take(pos))
                success_total += np.count_nonzero(success)
                rate_total += float(rate.take(pos).sum())
                if trace_file is not None:
                    outcomes = zip(high.tolist(), low.tolist(), rate.tolist())
                    tails = [_trace_suffix(*pair, *out) for pair, out in zip(pairs, outcomes)]
                    _write_trace(trace_file, tails, pos, done)
                done += n
            p_reps[rep] = success_total / cfg.slots
            th_reps[rep] = rate_total / cfg.slots
    finally:
        if trace_file is not None:
            trace_file.close()

    if cfg.replications > 1:
        root_r = math.sqrt(cfg.replications)
        stderr_p = float(np.std(p_reps, ddof=1) / root_r)
        stderr_th = float(np.std(th_reps, ddof=1) / root_r)
    else:
        stderr_p = stderr_th = 0.0
    return SimStats(
        p_success_hat=float(np.mean(p_reps)),
        throughput_hat=float(np.mean(th_reps)),
        stderr_p=stderr_p,
        stderr_th=stderr_th,
    )
