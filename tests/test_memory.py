"""Peak traced memory of the two array-heavy commands.

tracemalloc sees numpy's array buffers.  The bounds hold each command's
temporaries to a few 64 KiB blocks; there is no timing assertion.
"""

import dataclasses
import io
import tracemalloc

from hlp_sharp import cli
from hlp_sharp.cli import config_from_args, run

KIB = 1024


def _peak_bytes(config):
    run(config, stream=io.StringIO())  # first use fills the per-process caches
    tracemalloc.start()
    try:
        run(config, stream=io.StringIO())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_group_check_peaks_at_its_draws_plus_512_kib(tmp_path):
    n = 4
    d = 2 * n + 1
    config = config_from_args(["--command", "group-check", "--n", str(n),
                               "--out", str(tmp_path / "g.jsonl")])
    N = cli._GROUP_TRIPLES
    draws = 8 * (3 * N * d + N)  # X, Y, Z and r
    assert _peak_bytes(config) <= draws + 512 * KIB


def test_hilbert_sharpness_peaks_at_512_kib(tmp_path):
    # the sharpness_small benchmark configuration: every 8th grid radius
    config = config_from_args([
        "--command", "verify-sharpness", "--n", "1", "--m", "2", "--kind", "hilbert",
        "--rmin", "1e-2", "--rmax", "1e2", "--samples", "20000", "--out", str(tmp_path / "s.jsonl"),
    ])
    config = dataclasses.replace(config, grid=dataclasses.replace(config.grid, radii=config.grid.radii[::8]))
    assert _peak_bytes(config) <= 512 * KIB
