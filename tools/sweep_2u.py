"""The hard-row sweep: the class number of every 2U row, each in its own process.

    python3 tools/sweep_2u.py [--src DIR] [--out FILE]

Run it from anywhere.  It reads the rows from the tables of this checkout
and by default runs them with its library too (./src; --src names another
copy).  For each construction-table row whose model is 2U + K, of genus
II_{n,2}(p^{eps n_p}), it runs

    python -m reflector.cli classnumber --rank n-2 --prime p --c1 --cp --k --np n_p --format json

in a fresh interpreter, stops it after CAP = 30 seconds, and records the exit
code (None when the cap stopped it), the class number it printed, its wall
time and its peak resident memory (`ru_maxrss` of the child, read by
`os.wait4`), with the first line of its standard error when it failed.  One
JSON object per row goes to standard output as the row finishes; --out
writes the whole list as one JSON file.  The rows run one at a time, so at
most one child is alive.

Two things besides the row itself raise a child's `ru_maxrss`, and the
sweep keeps both fixed.  Compiling a module takes more memory than loading
its bytecode, so every child of a sweep reads its bytecode from one
temporary PYTHONPYCACHEPREFIX directory (`bytecode_cache`), filled before
the first row by one untimed `reflector.cli --help`, whatever caches the
tree and the interpreter carry.  And Linux counts in a child's `ru_maxrss`
the peak resident memory of the process that started it, so the sweep
imports no library itself: it reads the rows in a child process too
(`rows`), and stays smaller than any row's child.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CAP = 30  # seconds per row

# run by `rows` in a child: each 2U row, then its genus's rank - 2, prime and p-rank
_ROWS = """
import json
from reflector.classify import table_rows
from reflector.discforms import parse_genus
print(json.dumps([[*row, (g := parse_genus(row[0])).pos - 2, g.p, g.n_p]
                  for row in table_rows() if row[1].startswith("2U+")]))
"""


def rows() -> list[tuple]:
    """The 2U rows of `classify.table_rows()` of this checkout, in table order, as
    (genus, model, c1, cp, k, rank, p, n_p) with the rank, prime and p-rank that
    `reflector classnumber` takes, read in a child process so that the sweep
    imports no library."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _ROWS], env=env, check=True,
                         capture_output=True, text=True).stdout
    return [tuple(row) for row in json.loads(out)]


def classnumber_argv(row) -> list[str]:
    """The `reflector classnumber` arguments of a row of `rows`."""
    _, _, c1, cp, k, rank, p, n_p = row
    return ["classnumber", "--rank", str(rank), "--prime", str(p), "--c1", str(c1),
            "--cp", str(cp), "--k", str(k), "--np", str(n_p), "--format", "json"]


def _child_env(src: Path, cache: str) -> dict:
    """The environment of a child: the library of `src`, bytecode under `cache`."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONPYCACHEPREFIX": cache}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@contextmanager
def bytecode_cache(src: Path):
    """A temporary bytecode directory that holds every module a row's child imports,
    written by one untimed `python -m reflector.cli --help` on the library of `src`."""
    with tempfile.TemporaryDirectory() as cache:
        subprocess.run([sys.executable, "-m", "reflector.cli", "--help"], check=True,
                       stdout=subprocess.DEVNULL, env=_child_env(src, cache))
        yield cache


def run_row(row, src: Path, cache: str) -> dict:
    """One row's class number in a child process stopped after CAP seconds, reading its
    bytecode from `cache` (`bytecode_cache`)."""
    genus, model, c1, cp, k = row[:5]
    argv = [sys.executable, "-m", "reflector.cli", *classnumber_argv(row)]
    env = _child_env(src, cache)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                code = child.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.perf_counter() - start > CAP:
                child.kill()
                _, status, usage = os.wait4(child.pid, 0)
                child.returncode = os.waitstatus_to_exitcode(status)
                code = None
                break
            time.sleep(0.01)
        wall_s = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    record = {"model": model, "genus": genus, "c1": c1, "cp": cp, "k": k, "exit": code,
              "count": json.loads(stdout)["class_number"] if code == 0 else None,
              "wall_s": round(wall_s, 3), "maxrss_mb": round(usage.ru_maxrss / 1024, 2)}
    if code is None:
        record["message"] = f"stopped after {CAP} s"
    elif code != 0:
        record["message"] = stderr.splitlines()[0] if stderr else ""
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="the directory of the reflector package that runs the rows")
    parser.add_argument("--out", type=Path, help="write every record to this JSON file")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    records = []
    with bytecode_cache(src) as cache:
        for row in rows():
            records.append(run_row(row, src, cache))
            print(json.dumps(records[-1]), flush=True)
    if args.out:
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
