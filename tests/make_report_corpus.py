"""Regenerate report_corpus.json, the committed report corpus, from CONFIGS.

    PYTHONPATH=src python tests/make_report_corpus.py

Each configuration runs in-process through `cli.run`.  Its entry holds the
exit status, the sha256 of the report with the runtime_ms fields removed,
and each record's numeric fields as hex doubles, for readable diffs.  The
file also records the Python, numpy and BLAS versions it was made with,
since the bits depend on them.  test_report_corpus.py compares every
configuration against it.

Run this only after a change that moves numbers on purpose, and list in
that change's notes each configuration that moved, with the old and new
values of the fields that moved.  A configuration is never dropped from
CONFIGS to make the test pass.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from hlp_sharp import cli

CORPUS = Path(__file__).with_name("report_corpus.json")

# (argv, thin): with thin set, the run takes the benchmark's grid, the
# default grid with every 8th radius (1e-2, 1, 1e2)
CONFIGS = (
    # every command at n = 1-4, both kinds where the kind matters
    (("--command", "constant", "--kind", "hlp", "--n", "1"), False),
    (("--command", "constant", "--kind", "hlp", "--n", "2"), False),
    (("--command", "constant", "--kind", "hlp", "--n", "3"), False),
    (("--command", "constant", "--kind", "hlp", "--n", "4"), False),
    (("--command", "constant", "--kind", "hilbert", "--n", "1"), False),
    (("--command", "constant", "--kind", "hilbert", "--n", "2"), False),
    (("--command", "constant", "--kind", "hilbert", "--n", "3"), False),
    (("--command", "constant", "--kind", "hilbert", "--n", "4"), False),
    (("--command", "oracle-compare", "--n", "1"), False),
    (("--command", "oracle-compare", "--n", "2"), False),
    (("--command", "oracle-compare", "--n", "3"), False),
    (("--command", "oracle-compare", "--n", "4"), False),
    (("--command", "oracle-compare", "--m", "3", "--n", "2"), False),
    (("--command", "oracle-compare", "--m", "4", "--n", "3"), False),
    (("--command", "morrey-norm", "--n", "1"), False),
    (("--command", "morrey-norm", "--n", "2"), False),
    (("--command", "morrey-norm", "--n", "3"), False),
    (("--command", "morrey-norm", "--n", "4"), False),
    (("--command", "morrey-norm", "--m", "2", "--n", "1", "--alpha", "0.5", "--gammaj", "0.3,-0.2"), False),
    (("--command", "verify-dilation", "--n", "1"), False),
    (("--command", "verify-dilation", "--n", "2"), False),
    (("--command", "verify-dilation", "--n", "3"), False),
    (("--command", "verify-dilation", "--n", "4"), False),
    (("--command", "verify-dilation", "--n", "1", "--alpha", "-0.5", "--t", "0.3,7"), False),
    (("--command", "verify-sharpness", "--kind", "hlp", "--n", "1"), False),
    (("--command", "verify-sharpness", "--kind", "hlp", "--n", "2"), False),
    (("--command", "verify-sharpness", "--kind", "hlp", "--n", "3"), False),
    (("--command", "verify-sharpness", "--kind", "hlp", "--n", "4"), False),
    (("--command", "verify-sharpness", "--kind", "hilbert", "--n", "1"), False),
    (("--command", "verify-sharpness", "--kind", "hilbert", "--n", "2"), False),
    (("--command", "verify-sharpness", "--kind", "hilbert", "--n", "3"), False),
    (("--command", "verify-sharpness", "--kind", "hilbert", "--n", "4"), False),
    (("--command", "verify-sharpness", "--kind", "hlp", "--m", "2"), False),
    (("--command", "verify-sharpness", "--kind", "hilbert", "--m", "2"), False),
    (("--command", "verify-sharpness", "--kind", "hlp", "--m", "2", "--format", "csv"), False),
    (("--command", "verify-sharpness", "--kind", "hilbert", "--m", "2", "--format", "csv"), False),
    (("--command", "verify-sharpness", "--kind", "hlp", "--m", "2", "--format", "csv",
      "--widths", "1e-1:1e1,1e-2:1e2,1e-4:1e4"), False),
    # the sets of the Hilbert contraction's one-thread test
    (("--command", "verify-sharpness", "--kind", "hlp", "--m", "3", "--lambda", "-0.05"), False),
    (("--command", "verify-sharpness", "--kind", "hilbert", "--m", "3", "--lambda", "-0.05"), False),
    (("--command", "verify-sharpness", "--kind", "hlp", "--n", "3", "--m", "4"), False),
    (("--command", "verify-sharpness", "--kind", "hilbert", "--n", "3", "--m", "4"), False),
    (("--command", "verify-sharpness", "--kind", "hlp", "--rmin", "1e-6", "--rmax", "1e6"), False),
    (("--command", "verify-sharpness", "--kind", "hilbert", "--rmin", "1e-6", "--rmax", "1e6"), False),
    # group-check's random triples at three seeds
    (("--command", "group-check", "--n", "1"), False),
    (("--command", "group-check", "--n", "2"), False),
    (("--command", "group-check", "--n", "3"), False),
    (("--command", "group-check", "--n", "4"), False),
    (("--command", "group-check", "--n", "1", "--seed", "7"), False),
    (("--command", "group-check", "--n", "2", "--seed", "7"), False),
    (("--command", "group-check", "--n", "3", "--seed", "7"), False),
    (("--command", "group-check", "--n", "4", "--seed", "7"), False),
    (("--command", "group-check", "--n", "1", "--seed", "11"), False),
    (("--command", "group-check", "--n", "2", "--seed", "11"), False),
    (("--command", "group-check", "--n", "3", "--seed", "11"), False),
    (("--command", "group-check", "--n", "4", "--seed", "11"), False),
    # the benchmark's sharpness_small and morrey_large invocations at seed 1
    (("--command", "verify-sharpness", "--n", "1", "--m", "2", "--kind", "hlp",
      "--rmin", "1e-2", "--rmax", "1e2", "--samples", "20000", "--seed", "1"), True),
    (("--command", "verify-sharpness", "--n", "1", "--m", "2", "--kind", "hilbert",
      "--rmin", "1e-2", "--rmax", "1e2", "--samples", "20000", "--seed", "1"), True),
    (("--command", "morrey-norm", "--n", "2", "--alpha", "0.5", "--seed", "1"), True),
    (("--command", "verify-dilation", "--t", "2", "--n", "2", "--alpha", "0.5", "--seed", "1"), True),
    (("--command", "group-check", "--n", "2", "--alpha", "0.5", "--seed", "1"), True),
    # admissible sets drawn as the benchmark's oracle_sweep and band draws do
    (("--command", "oracle-compare", "--m", "1", "--n", "1", "--q", "3.6912686155787755",
      "--qj", "3.691268615578775", "--lambda", "-0.20882177876451127",
      "--gammaj", "1.3695414524260157", "--alpha", "-0.8241545195519367"), False),
    (("--command", "oracle-compare", "--m", "3", "--n", "2", "--q", "3.1460427176684016",
      "--qj", "5.781130882462836,14.940041196679376,12.828920453473787",
      "--lambda", "-0.22828969099956228",
      "--gammaj", "-0.12158440336647125,-0.5178863505376275,0.7728517371643573",
      "--alpha", "0.972505001090739"), False),
    (("--command", "oracle-compare", "--m", "4", "--n", "3", "--q", "2.4228776073198057",
      "--qj", "7.772102786971884,8.523905655387816,12.781628446513325,11.297820152420588",
      "--lambda", "-0.32781733001941593",
      "--gammaj", "-1.1246529879381968,-1.0395531499242603,-1.3679010889579275,0.6026893757865226",
      "--alpha", "-0.9375139525719464"), False),
    (("--command", "oracle-compare", "--m", "1", "--n", "1", "--q", "1.4053348398856214",
      "--qj", "1.4053348398856214", "--lambda", "-0.5836639697670202",
      "--gammaj", "-3.270377708080269", "--alpha", "0.0584739232245175"), False),
    (("--command", "oracle-compare", "--m", "2", "--n", "3", "--q", "2.160322967377843",
      "--qj", "3.202944010126697,6.636537365540909", "--lambda", "-0.07419539313048239",
      "--gammaj", "0.8250952450483053,-1.7820640914678596", "--alpha", "0.3731471184086921"), False),
    (("--command", "oracle-compare", "--m", "4", "--n", "2", "--q", "3.3893153125716875",
      "--qj", "12.141981348615106,15.759806924493056,13.022897785069636,13.803464388302864",
      "--lambda", "-0.043223676689739844",
      "--gammaj", "0.81381394547829,20.090701998909108,-0.7895935090610533,-0.5828401423490672",
      "--alpha", "-0.30588770797738174"), False),
    (("--command", "oracle-compare", "--m", "3", "--n", "2", "--q", "3.1656903213623226",
      "--qj", "8.329071784603347,10.528991804429015,9.915754265922068",
      "--lambda", "-0.2788172568202422",
      "--gammaj", "-0.34385678560570465,0.9506495593923083,-5.995725453849679",
      "--alpha", "-0.7929493665944058"), False),
    (("--command", "oracle-compare", "--m", "1", "--n", "1", "--q", "3.3730901066599968",
      "--qj", "3.3730901066599968", "--lambda", "-0.09893211711111782",
      "--gammaj", "12.358860858416357", "--alpha", "0.3734747890725423"), False),
    (("--command", "oracle-compare", "--m", "2", "--n", "3", "--q", "2.591048767610359",
      "--qj", "3.4535708161836323,10.374656997962552", "--lambda", "-0.3345558315976957",
      "--gammaj", "-0.2089761232286036,-6.780499323109621", "--alpha", "-0.7570556935381244"), False),
    (("--command", "oracle-compare", "--m", "4", "--n", "2", "--q", "3.8657781937427025",
      "--qj", "13.60731865816936,16.726705976323213,14.33767156485498,17.966450061930047",
      "--lambda", "-0.07772500562617239",
      "--gammaj", "0.5999908204808921,22.843623998210408,-0.9954689499380367,0.9705003849412943",
      "--alpha", "1.2476966644396938"), False),
    (("--command", "oracle-compare", "--m", "3", "--n", "2", "--q", "3.8155812421186805",
      "--qj", "12.46691068656013,7.763754674207441,18.8440046506888",
      "--lambda", "-0.07654516464850687",
      "--gammaj", "-0.7285817087139902,21.91378840411014,0.38900829279750404",
      "--alpha", "-0.2010845368885984"), False),
)

_NUMERIC = ("closed_form", "oracle", "abs_err", "rel_err", "tolerance")
_RUNTIME = re.compile(rb', "runtime_ms": -?\d+')


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def config_name(argv, thin: bool) -> str:
    return " ".join(argv) + (" [thin grid]" if thin else "")


def _numbers(report: bytes, fmt: str) -> list:
    """Each record's numeric fields as hex doubles: the verification records
    of a JSON report (not its header), or the rows of a CSV table."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(report.decode())))
        return [{k: float(v).hex() for k, v in zip(rows[0], row)} for row in rows[1:]]
    records = [json.loads(line) for line in report.decode().splitlines()]
    return [
        {"label": r["label"], **{k: float(r[k]).hex() for k in _NUMERIC}}
        for r in records
        if r.get("record") != "header"
    ]


def run_config(argv, thin: bool, out_dir: Path) -> dict:
    """The corpus entry of one configuration, its report written in out_dir."""
    config = cli.config_from_args([*argv, "--out", str(out_dir / "report")])
    if thin:
        config = dataclasses.replace(
            config, grid=dataclasses.replace(config.grid, radii=config.grid.radii[::8])
        )
    status = cli.run(config, stream=io.StringIO())
    report = _RUNTIME.sub(b"", Path(config.output_path).read_bytes())
    return {
        "name": config_name(argv, thin),
        "argv": list(argv),
        "thin_grid": thin,
        "status": status,
        "sha256": hashlib.sha256(report).hexdigest(),
        "records": _numbers(report, config.format),
    }


def _shown(value) -> str:
    try:
        return f"{value} ({float.fromhex(value)!r})"
    except (TypeError, ValueError):
        return repr(value)


def differences(expected: dict, observed: dict) -> list:
    """One line per difference, naming the configuration and the field."""
    name = expected["name"]
    out = []
    if observed["status"] != expected["status"]:
        out.append(f"{name}: exit status {expected['status']} -> {observed['status']}")
    old, new = expected["records"], observed["records"]
    if len(old) != len(new):
        out.append(f"{name}: {len(old)} records -> {len(new)}")
    for i, (a, b) in enumerate(zip(old, new)):
        for field in sorted(a.keys() | b.keys()):
            if a.get(field) != b.get(field):
                label = a.get("label", f"row {i}")
                out.append(f"{name}: record {i} ({label}) {field}: "
                           f"{_shown(a.get(field))} -> {_shown(b.get(field))}")
    if not out and observed["sha256"] != expected["sha256"]:
        out.append(f"{name}: equal numbers, but the bytes of a label, note or header moved")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        entries = [run_config(argv, thin, Path(tmp)) for argv, thin in CONFIGS]
    corpus = {"versions": versions(), "configs": entries}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(entries)} configurations to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
