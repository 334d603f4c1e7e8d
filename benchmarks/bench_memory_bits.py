"""A2 — ablation: the O(log n) memory claims (Section 2).

"O(log n) bits suffice for all our algorithms" — for both the whiteboards
and the agents' local memory.  The bench runs the real protocols with
bit-accounted whiteboards across growing dimensions (n = 8..4096 for
visibility, 8..2048 for CLEAN) and checks the peak usage grows additively
(counter widths), not multiplicatively, with n.
"""

from repro.protocols.clean_protocol import run_clean_protocol
from repro.protocols.visibility_protocol import run_visibility_protocol

VISIBILITY_DIMS = tuple(range(3, 13))
CLEAN_DIMS = tuple(range(3, 12))  # clean is heavier to simulate


def measure_peaks():
    out = {}
    for d in VISIBILITY_DIMS:
        vis = run_visibility_protocol(d)
        assert vis.ok
        out[("visibility", d)] = vis.peak_whiteboard_bits
    for d in CLEAN_DIMS:
        cln = run_clean_protocol(d)
        assert cln.ok
        out[("clean", d)] = cln.peak_whiteboard_bits
    return out


def test_memory_bits_logarithmic(benchmark, report):
    peaks = benchmark.pedantic(measure_peaks, rounds=1, iterations=1)

    lines = [f"{'protocol':<12} {'d':>3} {'n':>5} {'peak wb bits':>13}"]
    for (proto, d), bits in sorted(peaks.items()):
        lines.append(f"{proto:<12} {d:>3} {1 << d:>5} {bits:>13}")

    # doubling n (d -> d+1) adds only O(1) bits — counter widths, never
    # anything proportional to n
    for proto, dims in (("visibility", VISIBILITY_DIMS), ("clean", CLEAN_DIMS)):
        series = [peaks[(proto, d)] for d in dims]
        for a, b in zip(series, series[1:]):
            assert b - a <= 8, (proto, series)

    # absolute budget: fixed key overhead + c * log n enforced in-protocol
    vis = run_visibility_protocol(6, whiteboard_capacity_bits=16 * 8 + 8 * 6)
    assert vis.ok
    report("memory_bits", "\n".join(lines))


def test_agent_memory_is_small(benchmark):
    """Agents never store more than O(log n) bits of local state."""

    def run():
        return run_visibility_protocol(6)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.peak_agent_memory_bits <= 128
