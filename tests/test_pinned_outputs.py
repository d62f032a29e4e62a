"""Every experiment's output bytes, pinned by sha256.

All ten experiments run at the benchmark's reduced ("small") sizes, plus a
cond-time/occupation pair sharing one --cache directory, so the second run
reads the profile the first one stored.  Every CSV, report.txt and cached
profile file must hash to its pinned value.

The pins hold for this numpy build and this libm: the kernel's log-factorial
table calls libm's log through math.log and does the rest in numpy, so
another numpy or libm may round a last digit differently.  The scipy build
does not enter: no experiment calls scipy.  A change that moves a digit on purpose updates the
pins and records the old and new values in CHANGES.md.
"""

import hashlib
from pathlib import Path

import barw.cli as cli

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
    "bounds-report/report.txt": "7a9d20a23be92c0864454a53989f27043cf7b502a8abcb8254096615c070d898",
    "cache/profile_lambda1.5_n200_u45.txt": "7e4af03eb21409e23dcbf4ba1b8a01283659fd478b4ce999bd04474b21de3857",
    "cached-cond-time/t.csv": "caf6fe36a0dcb5d589560df2b6b697806f10f2c478ec0ee8d0607eb9f6b2a79d",
    "cached-occupation/h_occ.csv": "a29b1d1b6649f28154db2ef7a804437df54b26925ef65cc9a50440a46aff8ad1",
    "cond-time/t.csv": "caf6fe36a0dcb5d589560df2b6b697806f10f2c478ec0ee8d0607eb9f6b2a79d",
    "equivalence/tv.csv": "cd3c5e63ca67d655cfceb92b2c5ae6d93dcd9f61f26769d008d3c5277d970799",
    "figure1/logh.csv": "217db3df238104a7b1dfd3ebd5516fa493d05d60a6457a67c83807bc5d3c6b38",
    "figure2/kernel.csv": "af2710a3522be7e6f11b848806cef848c6454c0361dc5d3cbce311345e7be2cd",
    "mc-cond-path/est.csv": "59a9f12be8b19e18015b16523a543664467ef5e440ad55463c148040d28fe24a",
    "mc-hitting/est.csv": "5e0a0e5560adc493d4f76ecb92619454b537d6a68b9c3143598598a6043784ce",
    "occupation/h_occ.csv": "a29b1d1b6649f28154db2ef7a804437df54b26925ef65cc9a50440a46aff8ad1",
    "profile/phi.csv": "85b9f78545ea33c1e82ae7c1a9f8b10a8c551ef3daf1937ae53c801b3ca46bb6",
    "uncond-time/T.csv": "51761d4b6ee729f78bd500b1f9b9687f08283225e177be11d5e67f26322daf00",
}


def _digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "summary.json"
    }


def test_output_bytes_pinned(tmp_path):
    for name, argv in RUNS.items():
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0, name
    for name in CACHED:
        argv = [*RUNS[name], "--cache", str(tmp_path / "cache")]
        assert cli.main([*argv, "--out", str(tmp_path / f"cached-{name}")]) == 0, name
    assert _digests(tmp_path) == PINS
