"""Golden outputs: the CLI reports and catalog cache files, byte for byte.

Each file under ``tests/golden/`` holds one output exactly as the program
printed it when the file was written.  A change that alters any of them
alters a report or a cache key; such a change rewrites the files on
purpose, from a checkout with ``src`` on the path:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from isoposet.catalog import catalog_specs
from isoposet.cli import main
from isoposet.subgroups import _cache_path

GOLDEN = Path(__file__).resolve().parent / "golden"
SCAN_ORDERS = "1,2,3,4,5,6,7,8,9,10,12,15,20,21,24,60,120,168"
ISOPOSET_GROUPS = ("A5", "PSL(2,7)", "S4", "Z12", "SL(2,5)", "A5xZ2")


def _cli(*argv: str) -> str:
    out = StringIO()
    with redirect_stdout(out):
        status = main(list(argv))
    if status != 0:
        raise RuntimeError(f"isoposet {' '.join(argv)} exited {status}")
    return out.getvalue()


def _verify_all(cache_dir: str) -> str:
    payload = json.loads(_cli("--format", "json", "verify", "all", "--cache-dir", cache_dir))
    for claim in payload["claims"]:
        del claim["wall_time_s"]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _scan(cache_dir: str) -> str:
    return _cli("--format", "json", "scan", "--orders", SCAN_ORDERS, "--cache-dir", cache_dir)


def _isoposet(name: str):
    return lambda cache_dir: _cli("--format", "json", "group", name, "isoposet",
                                  "--cache-dir", cache_dir)


def _cache_names(cache_dir: str) -> str:
    names = sorted(_cache_path(spec.build(), cache_dir).name for spec in catalog_specs())
    return "".join(f"{name}\n" for name in names)


def _cache_contents(_cache_dir: str) -> str:
    # a cold scan into an empty directory, so every file is written, not read
    with tempfile.TemporaryDirectory() as fresh:
        _scan(fresh)
        files = sorted(Path(fresh).iterdir())
        return "".join(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n"
                       for f in files)


OUTPUTS = {
    "verify-all.json": _verify_all,
    "scan.json": _scan,
    **{f"isoposet-{re.sub(r'[^A-Za-z0-9]', '', name)}.json": _isoposet(name)
       for name in ISOPOSET_GROUPS},
    "catalog-cache-files.txt": _cache_names,
    "catalog-cache-sha256.txt": _cache_contents,
}


@pytest.mark.parametrize("filename", list(OUTPUTS))
def test_output_matches_golden(filename, cache_dir):
    assert OUTPUTS[filename](cache_dir) == (GOLDEN / filename).read_text("utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for filename, produce in OUTPUTS.items():
            (GOLDEN / filename).write_text(produce(scratch), "utf-8")
            print(f"wrote {GOLDEN / filename}", file=sys.stderr)
