"""Every experiment's output bytes, pinned by sha256.

All ten experiments run at the benchmark's reduced ("small") sizes, plus a
cond-time/occupation pair sharing one --cache directory, so the second run
reads the profile the first one stored.  Every CSV, report.txt and cached
profile (JSON) file must hash to its pinned value.

The pins hold for this numpy build, its BLAS and this libm: the kernel's
log-factorial table calls libm's log through math.log and does the rest in
numpy, and the hitting solves of more than 32 states take BLAS matrix
products (figure1, figure2 and the bounds-report window solve, m = 88, span
2 to 3 panels), so another numpy, BLAS or libm may round a last digit
differently.  The conditioned time solves behind t.csv and h_occ.csv take
einsum products, not BLAS ones.  The scipy build does not enter: no
experiment calls scipy.  A change that moves a digit on purpose updates
the pins and records the old and new values in CHANGES.md.

An OpenBLAS built with DYNAMIC_ARCH picks its matrix-product kernel for
the CPU at load time, and those kernels round products differently.  On
x86-64 the runs are repeated in subprocesses forced, through
OPENBLAS_CORETYPE, to the Prescott (SSE3) and the Sandybridge (AVX)
kernels, which every x86-64 CPU with AVX runs; the bytes must not move.
Newer kernels are not forced: on a CPU that lacks their instructions
OpenBLAS dies with SIGILL.

The pins also depend on numpy's SIMD dispatch: np.exp and np.log round
differently in their AVX-512 and AVX2 loops.  Under
NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4" all 6 test cases
here fail, so a runner without AVX-512 loops fails tier-1 until the
value-determining exp and log are made portable (ROADMAP item 3).
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import barw.cli as cli
from barw import ModelParams, hitting_profile

WINDOW = ["--epsilon", "0.05"]
SEED = ["--seed", "1"]

#: run name -> argv without --out and --cache
RUNS = {
    "profile": ["profile", "--lambda", "2", "--n", "50", "--u", "10"],
    "figure1": ["figure1", "--lambda", "1.5", "--n", "200", *WINDOW],
    "figure2": ["figure2", "--lambda", "6", "--n", "200", *WINDOW],
    "cond-time": ["cond-time", "--lambda", "1.5", "--n", "200", *WINDOW],
    "uncond-time": ["uncond-time", "--lambda", "2", "--n", "20,30"],
    "occupation": ["occupation", "--lambda", "1.5", "--n", "200", "--delta", "0.1", *WINDOW],
    "mc-hitting": ["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", "--x0", "3",
                   "--trials", "400", *SEED],
    "mc-cond-path": ["mc-cond-path", "--lambda", "1.5", "--n", "300", *WINDOW, "--x0", "20",
                     "--trials", "400", *SEED],
    "equivalence": ["equivalence", "--lambda", "2", "--n", "30", "--x0", "10",
                    "--trials", "800", *SEED],
    "bounds-report": ["bounds-report", "--lambda", "2", "--n", "300", *WINDOW],
}
#: runs that share the one --cache directory, in order: the first stores, the second hits
CACHED = ("cond-time", "occupation")

PINS = {
    "bounds-report/report.txt": "7c373992ef45e7d469c8c4535abf93b12c257ab32e83957e704a4d55350a4f8e",
    "cache/profile_lambda1.5_n200_u45.json": "97772e7b9a9d55df1d001f84ecafffdaba7658a207575d6bf30d78a84320f7c0",
    "cached-cond-time/t.csv": "e3e1714e569ec718aa974c348b5e4e65a65af4d259e10148b6a77566f07a1155",
    "cached-occupation/h_occ.csv": "7585c23384630848a7fa3aa9c9cc94c4b0c34fa7e57eaa4b2cfa197277cb5ec9",
    "cond-time/t.csv": "e3e1714e569ec718aa974c348b5e4e65a65af4d259e10148b6a77566f07a1155",
    "equivalence/tv.csv": "cd3c5e63ca67d655cfceb92b2c5ae6d93dcd9f61f26769d008d3c5277d970799",
    "figure1/logh.csv": "f713494fc7f118d4d1cc3f3e37808ba1430c3c70a02ff3e501b31996660a6b6e",
    "figure2/kernel.csv": "766c6d739734832df1ef6994490b1ef369ed0c7b3aa24f5de8b4d5062380012d",
    "mc-cond-path/est.csv": "59a9f12be8b19e18015b16523a543664467ef5e440ad55463c148040d28fe24a",
    "mc-hitting/est.csv": "5e0a0e5560adc493d4f76ecb92619454b537d6a68b9c3143598598a6043784ce",
    "occupation/h_occ.csv": "7585c23384630848a7fa3aa9c9cc94c4b0c34fa7e57eaa4b2cfa197277cb5ec9",
    "profile/phi.csv": "af31922aae72c92ef78f9eb8420bb10881ed754ea9da8f229fb507b2f36124e2",
    "uncond-time/T.csv": "51761d4b6ee729f78bd500b1f9b9687f08283225e177be11d5e67f26322daf00",
}

#: (lambda, n, u) -> sha256 of hitting_profile(...).log_phi.tobytes(), for the
#: profile solve at sizes the runs above do not reach: bounds-report's window
#: at n = 2000 eliminates m = 593 states in 19 panels, (4, 500, 350), far
#: above eq, takes a second scaled pass, and (6, 1200, 299) is figure2's
#: README profile, whose rows near u send much of their mass to >= u, so a
#: change to the upper-tail sum shows there first.  Under the forced BLAS
#: kernels of the test below the second digest moves, so these hold for the
#: default kernel.
PROFILE_PINS = {
    (2.0, 2000, 594): "398da422435153826cfaf9109448c32f2e524da779f2952c099fc6eeea7b1cc4",
    (4.0, 500, 350): "1b2ab748cf09e925b2c0446a3d2fa8ff0250497e67d70fe9970ff799fa2cbe8f",
    (6.0, 1200, 299): "484d4a4ae02ba58a7cfb9adc0735e4e7d00431bd7bd21dd202660eb6f666a658",
}


def _digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "summary.json"
    }


def _run_all(root: Path) -> dict[str, str]:
    """Run RUNS, then the CACHED pair, under root; returns the digests of what they wrote."""
    for name, argv in RUNS.items():
        assert cli.main([*argv, "--out", str(root / name)]) == 0, name
    for name in CACHED:
        argv = [*RUNS[name], "--cache", str(root / "cache")]
        assert cli.main([*argv, "--out", str(root / f"cached-{name}")]) == 0, name
    return _digests(root)


def test_output_bytes_pinned(tmp_path):
    assert _run_all(tmp_path) == PINS


@pytest.mark.parametrize("lam,n,u", sorted(PROFILE_PINS))
def test_profile_bytes_pinned(lam, n, u):
    log_phi = hitting_profile(ModelParams(lam, n), u).log_phi
    assert hashlib.sha256(log_phi.tobytes()).hexdigest() == PROFILE_PINS[lam, n, u]


def _dynamic_arch_openblas_on_x86_64() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        platform.machine() in ("x86_64", "AMD64")
        and "openblas" in blas.get("name", "")
        and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
    )


@pytest.mark.skipif(
    not _dynamic_arch_openblas_on_x86_64(),
    reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH",
)
@pytest.mark.parametrize("coretype", ["Prescott", "Sandybridge"])
def test_output_bytes_pinned_under_other_blas_kernels(tmp_path, coretype):
    script = (
        "import json, sys; from pathlib import Path; import test_pinned_outputs as t; "
        "print(json.dumps(t._run_all(Path(sys.argv[1]))))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=coretype),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == PINS  # after the runs' own lines
