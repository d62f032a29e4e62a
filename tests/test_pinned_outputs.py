"""Every experiment's output bytes, pinned by sha256.

All ten experiments run at the benchmark's reduced ("small") sizes, plus a
cond-time/occupation pair sharing one --cache directory, so the second run
reads the profile the first one stored.  Every CSV, report.txt and cached
profile (JSON) file must hash to its pinned value.  figure2 also runs at
its README size, whose kernel.csv spans many of the CSV writer's chunks.

The pins hold for this numpy build, its BLAS and this libm: the kernel's
log-factorial table calls libm's log through math.log and does the rest in
numpy, and every GTH solve, of phi and of the conditioned times alike,
takes BLAS matrix products for its trailing updates, so another numpy,
BLAS or libm may round a last digit differently.  Only a solve of
m = u - 1 >= 64 states has a trailing update, one per 32-state panel with
states after it: of the runs here only the bounds-report window solve
(m = 88) takes one, and the time solves behind t.csv and h_occ.csv
(m = 44) take none, so TIME_PINS pins both times at m = 593, where each
takes 17.  Every other product of either solve is an einsum
(solver._panel_update states the rule).  The scipy build does not enter:
no experiment calls scipy.  A change that moves a digit on purpose
updates the pins and records the old and new values in CHANGES.md.

An OpenBLAS built with DYNAMIC_ARCH picks its matrix-product kernel for
the CPU at load time, and those kernels round products differently.  On
x86-64 the runs are repeated in subprocesses forced, through
OPENBLAS_CORETYPE, to the Prescott (SSE3) and the Sandybridge (AVX)
kernels, which every x86-64 CPU with AVX runs; the bytes must not move,
nor may those of the KERNEL_FREE_PROFILES, whose solves take 17 and 8
trailing BLAS products, or of TIME_PINS.  Newer kernels are not forced:
on a CPU that lacks their instructions OpenBLAS dies with SIGILL.

The pins also depend on numpy's SIMD dispatch: np.exp and np.log round
differently in their AVX-512 and AVX2 loops.  Under
NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4" 7 of the 8 test
cases here fail (all but test_profile_bytes_pinned[6.0-1200-299]), so a
runner without AVX-512 loops fails tier-1 until the value-determining exp
and log are made portable (ROADMAP item 3).
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
from barw import (
    ModelParams,
    conditional_expected_extinction,
    conditional_occupation_time,
    hitting_profile,
)

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
    "bounds-report/report.txt": "415e6255767f2223efa89a4efb024dcb79f6938e4ef86d367d29c611dde5b225",
    "cache/profile_lambda1.5_n200_u45.json": "0e11870ca4a3add33c9197c636aa278406868b65b1fdf8d0462f2a98862c4bba",
    "cached-cond-time/t.csv": "e320cbc5c40e93c07f9b58260bdf77a6326d076965c7d6239bea6454664cfe37",
    "cached-occupation/h_occ.csv": "e7fe1c92932f28d73e4c305ecf3a6e41fde7135c262b76ff7f32e6470550c9e9",
    "cond-time/t.csv": "e320cbc5c40e93c07f9b58260bdf77a6326d076965c7d6239bea6454664cfe37",
    "equivalence/tv.csv": "cd3c5e63ca67d655cfceb92b2c5ae6d93dcd9f61f26769d008d3c5277d970799",
    "figure1/logh.csv": "e1ee2515655c001692a380f41f78fae5eea65a40d487521d552ae54b1e70bcf8",
    "figure2/kernel.csv": "81eea9c944477a55fbb64fe1d8c44c7432010b9e3685bddc60e30864a701a5db",
    "mc-cond-path/est.csv": "59a9f12be8b19e18015b16523a543664467ef5e440ad55463c148040d28fe24a",
    "mc-hitting/est.csv": "5e0a0e5560adc493d4f76ecb92619454b537d6a68b9c3143598598a6043784ce",
    "occupation/h_occ.csv": "e7fe1c92932f28d73e4c305ecf3a6e41fde7135c262b76ff7f32e6470550c9e9",
    "profile/phi.csv": "da7a8a41c75d7a98ee51983d5d135e77a27c17de9306951f0da9b4160a9a305f",
    "uncond-time/T.csv": "51761d4b6ee729f78bd500b1f9b9687f08283225e177be11d5e67f26322daf00",
}

#: (lambda, n, u) -> sha256 of hitting_profile(...).log_phi.tobytes(), for the
#: profile solve at sizes the runs above do not reach: bounds-report's window
#: at n = 2000 eliminates m = 593 states in 18 panels, (4, 500, 350), far
#: above eq, takes a second scaled pass, and (6, 1200, 299) is figure2's
#: README profile, whose rows near u send much of their mass to >= u, so a
#: change to the upper-tail sum shows there first.
PROFILE_PINS = {
    (2.0, 2000, 594): "d7a593d27f723f88f360f1c762f2ee0117dd9f60edeb14708712d08d307d9a27",
    (4.0, 500, 350): "1b53fbd9f0472c25f0cb0faf48bfaa43f4d69ec45254c72e2336be6c103edfc5",
    (6.0, 1200, 299): "1cf401423e7542d02affde4a46ccb2e2b557e5a2e4ea74a4a14bbfe6f5825e3d",
}
#: the PROFILE_PINS that hold under the forced BLAS kernels of the last test
#: too; (4, 500, 350) moves under them, so it holds for the default kernel
KERNEL_FREE_PROFILES = ((2.0, 2000, 594), (6.0, 1200, 299))
#: (lambda, n, u) -> sha256 of conditional_expected_extinction(profile) and of
#: conditional_occupation_time(profile, 0.1), .tobytes(), on that profile:
#: m = 593 states in 18 panels, so each time solve takes 17 trailing updates
TIME_PINS = {
    (2.0, 2000, 594): (
        "4a0668ecaf5f519d667c084aaf2f28bd5ec96df1af250853be0ef2dd312847c0",
        "f141bfa6f0be13a356a3ee75a4259b985cb80ddb0de3d991527e3d25c2ab2d79",
    ),
}

#: figure2's README run, whose kernel.csv of 89,102 rows spans 22 of the
#: writer's CSV_CHUNKs, and the sha256 of that file
README_FIGURE2 = ["figure2", "--lambda", "6", "--n", "1200", *WINDOW]
README_KERNEL_PIN = "10ce82cb138d2fbbf8a962ab3e92b8441bf9316c2d6ab21a41545bbf1ebf0713"


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


def test_readme_kernel_bytes_pinned(tmp_path):
    assert cli.main([*README_FIGURE2, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "kernel.csv").read_bytes()).hexdigest() == README_KERNEL_PIN


def _profile_digest(lam: float, n: int, u: int) -> str:
    return hashlib.sha256(hitting_profile(ModelParams(lam, n), u).log_phi.tobytes()).hexdigest()


@pytest.mark.parametrize("lam,n,u", sorted(PROFILE_PINS))
def test_profile_bytes_pinned(lam, n, u):
    assert _profile_digest(lam, n, u) == PROFILE_PINS[lam, n, u]


def _time_digests(lam: float, n: int, u: int) -> tuple[str, str]:
    profile = hitting_profile(ModelParams(lam, n), u)
    times = conditional_expected_extinction(profile), conditional_occupation_time(profile, 0.1)
    return tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in times)


@pytest.mark.parametrize("lam,n,u", sorted(TIME_PINS))
def test_time_bytes_pinned(lam, n, u):
    assert _time_digests(lam, n, u) == TIME_PINS[lam, n, u]


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
        "runs = t._run_all(Path(sys.argv[1])); "
        "print(json.dumps([runs, [t._profile_digest(*key) for key in t.KERNEL_FREE_PROFILES], "
        "[t._time_digests(*key) for key in t.TIME_PINS]]))"
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
    runs, profiles, times = json.loads(done.stdout.splitlines()[-1])  # after the runs' own lines
    assert runs == PINS
    assert profiles == [PROFILE_PINS[key] for key in KERNEL_FREE_PROFILES]
    assert times == [list(TIME_PINS[key]) for key in TIME_PINS]
