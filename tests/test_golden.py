"""Golden outputs of the CLI: every supported (kind, command) pair of the six
zoo kinds at a small pinned config, plus perturbed stability runs: a bump
on Schottky and seeded matrix jitter on each of the three kinds of
jitterable map (Moebius, projective and lifted circle maps).

Each run's exit status, stdout and output files (report.json, CSVs, SVGs)
are compared by SHA-256 with the hashes in GOLDEN, so a refactor of the
evaluation code must keep every float it writes.  Runs that fail, the
unsupported pairs and expansion rates that no cover reaches, are compared
by exit status and last stderr line with FAILED.  The hashes were recorded
with numpy NUMPY_VERSION; a different numpy may round differently, and the
test still fails rather than skips.  Print fresh hashes and failures with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np
import pytest

from expaction import cli

NUMPY_VERSION = "2.4.6"

SYSTEMS = {
    "cyclic_hyperbolic": {
        "system": {"kind": "cyclic_hyperbolic", "params": {"multiplier": 2.0}},
        "lambda_target": 1.5,
    },
    "covered_cyclic": {
        "system": {"kind": "covered_cyclic", "params": {"multiplier": 2.0, "degree": 3}},
        "lambda_target": 1.5,
    },
    "schottky": {
        "system": {"kind": "schottky", "params": {}},
        "lambda_target": 1.4,
        "net": {"depth": 3},
    },
    "free_boundary": {
        "system": {"kind": "free_boundary", "params": {"rank": 2, "a": 2.0}},
        "lambda_target": 2.0,
        "net": {"depth": 3},
    },
    "zn_projective": {
        "system": {"kind": "zn_projective", "params": {}},
        "codes": {"depth": 10, "cap": 50},
        "n_max": 1,
    },
    "product": {
        "system": {
            "kind": "product",
            "params": {"with_swap": True, "component": {"kind": "free_boundary", "params": {}}},
        },
        "lambda_target": 2.0,
        "net": {"depth": 2},
    },
}
SHARED = {"codes": {"depth": 8, "cap": 50}, "prefix_depth": 10}
COMMANDS = ("verify-expansion", "codes", "certify-shyp", "coding-map", "stability")
# pairs the CLI does not support: coding maps need a free or cyclic
# presentation, perturbations a circle or projective space
UNSUPPORTED = {
    ("zn_projective", "coding-map"),
    ("product", "coding-map"),
    ("free_boundary", "stability"),
    ("product", "stability"),
}

RUNS = {
    f"{kind}.{command}": (command, {**SHARED, **config})
    for kind, config in SYSTEMS.items()
    for command in COMMANDS
    if (kind, command) not in UNSUPPORTED
}
# Moebius maps draw 4 numbers each, projective maps n + 1, a lifted map 1
JITTERED = ("schottky", "zn_projective", "covered_cyclic")
for kind in JITTERED:
    RUNS[f"{kind}.stability.jitter"] = (
        "stability",
        {**SHARED, **SYSTEMS[kind],
         "perturbation": {"family": "matrix_jitter", "magnitude": 3e-6, "seed": 7}},
    )
RUNS["schottky.stability.bump"] = (
    "stability",
    {**SHARED, **SYSTEMS["schottky"],
     "perturbation": {"family": "bump_compose", "center": 1.0, "width": 0.6, "height": 5e-6}},
)

# runs that fail: each unsupported pair, and verify-expansion at expansion
# rates that no cover reaches, at the systems' default net depths
FAILING = {
    f"{kind}.{command}": (command, {**SHARED, **SYSTEMS[kind]})
    for kind, command in sorted(UNSUPPORTED)
}
# the systems by name, and the expansion rates at which no cover reaches them
NAMED_SYSTEMS = {kind: config["system"] for kind, config in SYSTEMS.items()}
NAMED_SYSTEMS["product_of_schottky"] = {
    "kind": "product", "params": {"with_swap": True, "component": {"kind": "schottky", "params": {}}},
}
UNCOVERABLE = {
    "cyclic_hyperbolic": (100,),
    "covered_cyclic": (50,),
    "schottky": (60, 9.5),
    "free_boundary": (2.5,),
    "zn_projective": (40, 3.5),
    "product_of_schottky": (60,),
    "product": (3,),
}
for kind, rates in UNCOVERABLE.items():
    for rate in rates:
        FAILING[f"{kind}.verify-expansion.lambda-{rate}"] = (
            "verify-expansion", {"system": NAMED_SYSTEMS[kind], "lambda_target": rate},
        )

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_hashes(name: str, workdir: Path, config: dict | None = None) -> dict:
    """Exit status and SHA-256 of stdout and of every output file of a run,
    with the run's own config or the given one."""
    command, own = RUNS[name]
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(own if config is None else config))
    out = workdir / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main([command, "--config", str(path), "--out", str(out)])
    hashes = {f.name: _sha(f.read_bytes()) for f in sorted(out.iterdir())}
    return {"status": status, "stdout": _sha(stdout.getvalue().encode()), **hashes}


def run_failure(name: str, workdir: Path) -> tuple:
    """(exit status, last stderr line) of a failing run; an exception that
    escapes `cli.main` exits the interpreter with 1 and ends its traceback
    with the line `format_exception_only` gives."""
    command, config = FAILING[name]
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(config))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            status = cli.main([command, "--config", str(path), "--out", str(workdir / name)])
        except Exception as err:
            return 1, traceback.format_exception_only(err)[-1].strip()
    return status, stderr.getvalue().strip().splitlines()[-1]


GOLDEN = {
    "covered_cyclic.certify-shyp": {
        "status": 0,
        "stdout": "4f3d7eff63b9ce1bd5c01e12cfd154a38ce4f4488ed16aaafdd6633252254200",
        "report.json": "be2aa05a4f30d98e761991e79e49881c63e729891b2146a6c11b52470ae0c773",
    },
    "covered_cyclic.codes": {
        "status": 0,
        "stdout": "778f1cb2eae74b1e7c712a340cbd42f5ffe82650ebd1aa40f1a546e43285dd7a",
        "codes.csv": "363a44211e45a2325cb4e078e144a1d2e8f74194077b1a43c4f3c41e3e66eaae",
        "nested.svg": "fb9fa2fdb6a791e2ceeedf0af5a3f9a3a31744b6f6262be6e9fed02e47365f33",
        "report.json": "28c90f4b98bfe4b1af021f7402c7e5de815899e66889039fd9ec2ca07fa2c62e",
    },
    "covered_cyclic.coding-map": {
        "status": 0,
        "stdout": "1817da22cca3c91eb4b34f03857db30abd72ff71f6f89ff18111b132342c10e7",
        "coding_map.csv": "1bd94cf6342bf2413585be8d5ee043b34be0deda91a401722b3931bf42aba756",
        "report.json": "4ada537d8b9a68b392b928f02675848e6c3e9a0ff4f60d1996991414f59dbc2a",
    },
    "covered_cyclic.stability": {
        "status": 0,
        "stdout": "c775ef5b666681df3fba0d9f72adc1eedf0687d050bf951ae13abeaa0f2d8389",
        "conjugacy.csv": "e0e5f560033fa4b3e84ff8abcf3df825a027783a9f4b9ee91aec77fcf03fc48a",
        "lambda_vs_image.svg": "75a717dcd27a1da0834b6eed450b94d15316934401823e358e37a9ddff065f43",
        "report.json": "451b1701a0724e797f7fb3e7f526519728b3da14d9bdd316fb1983ba07249ea1",
    },
    "covered_cyclic.stability.jitter": {
        "status": 0,
        "stdout": "c775ef5b666681df3fba0d9f72adc1eedf0687d050bf951ae13abeaa0f2d8389",
        "conjugacy.csv": "c1eed361e2e04ce4496bc4830f4406fc79c88d140f4154b4bab0b62dc3385f3a",
        "lambda_vs_image.svg": "75a717dcd27a1da0834b6eed450b94d15316934401823e358e37a9ddff065f43",
        "report.json": "e49ea76f7fd4589d878400048dfdd09912aa605358f1d2b269ab2db5036f19e5",
    },
    "covered_cyclic.verify-expansion": {
        "status": 0,
        "stdout": "6de9e2766442db8629561ff53a633e067e65effd9183219fbb3b57599714abe9",
        "checks.csv": "4f590504361f4024aa0c6db95cf20d77ee3f1cc73c1d82b520b337b3f78e1687",
        "cover.svg": "6a550612329122b900c7bb1480cd0368eeef5c3c5f89bfb0919c1240b28e9a5a",
        "report.json": "bdefc15ebd97e588cfae9af136c1d58a5bb0f7d5a80b3450503a2b9c24529b45",
    },
    "cyclic_hyperbolic.certify-shyp": {
        "status": 0,
        "stdout": "4f3d7eff63b9ce1bd5c01e12cfd154a38ce4f4488ed16aaafdd6633252254200",
        "report.json": "c2b0b7f12905c9b4d1957487ede8de0b41dca4feab3849de0f6c2b24c0bf34b6",
    },
    "cyclic_hyperbolic.codes": {
        "status": 0,
        "stdout": "9536c43712bf2a8899629f82c86151c398c8792fef013019b8fed6e70fe779ce",
        "codes.csv": "7f9a5332d1ba5ad211489e3e2d6fdb22108c440d9985dcf80690e3b2a18e8518",
        "nested.svg": "0ff2a224ba828ecc529cdc16322e23918e117ba587835307774463722ef907d3",
        "report.json": "203190f5d4f8b51ad70ad9ebf0e6108ae05421f59d499a5cc62620007dec3af0",
    },
    "cyclic_hyperbolic.coding-map": {
        "status": 0,
        "stdout": "32378f78d77cd2ee391b16177a406708c5a1f04fb353d52a4e485f775018d64c",
        "coding_map.csv": "8951fb2823c6ea89e54bb499b04003f705cd0d966d7a0c6dbd20be1462e4cbc7",
        "report.json": "3ccf2fbaff057c3ec88f3845d76f95afb710acfe77a032c9330155559145378d",
    },
    "cyclic_hyperbolic.stability": {
        "status": 0,
        "stdout": "d41cd062e65065aa10cd662be57892137f8d7c7d95e3071206cea567ff6efb44",
        "conjugacy.csv": "ecc295e5e7de860792dd385f65345b8e1d800bbbc54379222dc4575de8281533",
        "lambda_vs_image.svg": "39da0058e17656e1e3519290c0084661fd3c06cd9e0c05c7cdf32f8b8637aa90",
        "report.json": "fc0067eccfab0c66cc8fb35bc39112f2fe020503899727009c2fdea1503d01de",
    },
    "cyclic_hyperbolic.verify-expansion": {
        "status": 0,
        "stdout": "5ff3345007dad64cfe59cf268233250db7c1427e0fe987abb9459cf919216af1",
        "checks.csv": "3f5303883e6151041cc35272525523b936c0c2b4809b54607c628fc158646f0a",
        "cover.svg": "8c057ba34420dbf2a4c5e49480f4d09061c97fe5090ea555686a9a0468fe91aa",
        "report.json": "502a47f5ce9ddda4c2b20f81e98ddecde38ab2e0ef7af04d812ad6e3dc0be2e4",
    },
    "free_boundary.certify-shyp": {
        "status": 0,
        "stdout": "4f3d7eff63b9ce1bd5c01e12cfd154a38ce4f4488ed16aaafdd6633252254200",
        "report.json": "c02adff6c66ab8adb287f3c1d4833ff01add6bb2aebe2b2be7ab2833b9cae10f",
    },
    "free_boundary.codes": {
        "status": 0,
        "stdout": "7e62721afb70fdb9c0b267cb175a4e66b99ba9d82a55a8f2b1ce713d7151f08c",
        "codes.csv": "206b4535270850408501cf671dcec59f61955ba70a9425267c3e0dfa0458b38f",
        "report.json": "50b66a8625716d3be1043f97fe5e30cb0c097dae652669b8d71e8cbd0a022624",
    },
    "free_boundary.coding-map": {
        "status": 0,
        "stdout": "534f61098f844e8af43d605fa5db0d84fe54990d3bc83a5bb7a7a75a6c1307a1",
        "coding_map.csv": "0f0030dd8b7f6038d31a4297ead679c5d93a4cb0ad70b9a6bd3882fa39a66da4",
        "report.json": "828f09871eacae9bb825453d819b46de54acb2cd5d894ba967f5f79a3bf603f8",
    },
    "free_boundary.verify-expansion": {
        "status": 0,
        "stdout": "1c3b32cfd18be5d002a85624b72127f3a0f239d4945a051fa43a63ec5ab6a608",
        "checks.csv": "34a00689692ed9442e3482a45ce91d4a37429923bfebfc0e4585301c017d4c6b",
        "report.json": "352fc944353f77d4ac92b6cec461525e02ea28de8085ab5493b84b920f864d73",
    },
    "product.certify-shyp": {
        "status": 0,
        "stdout": "fbe3ebb9a4d263aedf907acf7fccff618442e75e7935b0683a4cc78c2c61732b",
        "report.json": "c1c86493e891a9c824f833ecfe565317144a2d4399b655fef6683b7049aca220",
    },
    "product.codes": {
        "status": 0,
        "stdout": "4fa9849cd5d776d81c70f9c722ad43fc5bff4d1fc9063a62cbdf29719cd9e97c",
        "codes.csv": "ce248bc64a3c5b5b2c640abe7fb6f7e27d5a2f93badab287986f89e859e8b36d",
        "report.json": "bdc3305733fb1b95da867d081dd314c273c4c926657b422725f412bbeb191d2b",
    },
    "product.verify-expansion": {
        "status": 0,
        "stdout": "c72ab0ae73590934ee5abfc03a76353b86b4f441004160081f9d696c80b2e6dc",
        "checks.csv": "3143a8a26cb3e3ebb9904f1eb7c7a6d4f9dc69d74b8f72c99dddef1225781b4b",
        "report.json": "603c974d644d72d4d9c511e59ea86df557a6b4cfb0a447b6d8df483b662c1264",
    },
    "schottky.certify-shyp": {
        "status": 0,
        "stdout": "4f3d7eff63b9ce1bd5c01e12cfd154a38ce4f4488ed16aaafdd6633252254200",
        "report.json": "2eef769176cdf5188df76c3be76262c8c698d23c29b354df3a15e4c25cf6e351",
    },
    "schottky.codes": {
        "status": 0,
        "stdout": "c0599de15a18646c8d74fcaf8d35f2459b3aecd49eeb04121045d924543b9789",
        "codes.csv": "f72925fc2623745f40ae24db7759b7e43979710b42259efe3e8e74a81eaffb0e",
        "nested.svg": "df063dbce319d48bfab13a09a012892807cd8fae75940313f9a21960fae18f6b",
        "report.json": "ec5310a6a343c71858dca60d9996ef442ced97603e1e313cc83358027467e58c",
    },
    "schottky.coding-map": {
        "status": 0,
        "stdout": "534f61098f844e8af43d605fa5db0d84fe54990d3bc83a5bb7a7a75a6c1307a1",
        "coding_map.csv": "2e5e6fdf3edae451e1ed509ce987c2215f3623935d68233172b670c911de603b",
        "report.json": "a812ef287edd3870bf33cb2bebbff61b5c7cbcd3498eb1c299e38362814ab959",
    },
    "schottky.stability": {
        "status": 0,
        "stdout": "ee6f5937feb34196ad307f0ac9a6b12144985e1e78bc3447a2f37a7aa27428b8",
        "conjugacy.csv": "91934926a63f918918ae412299565499ecb0b719ff5854ab5583f97b9cc13465",
        "lambda_vs_image.svg": "a0dbc9880bf43746fb81eabf2edcbc82b98521a08b1e41cb93a130a5524b6ccc",
        "report.json": "df74612cc132980f1213293a7aae7c2ea6b35896b2d3a5ad99a52ac45fd95a1b",
    },
    "schottky.stability.bump": {
        "status": 0,
        "stdout": "4297c7d59b5aaa486eb526fef7fead4f43308bf8350477543b86c6b581ef014e",
        "conjugacy.csv": "ff2ceccc43405633d10ea0fdb55a39b68bcae21615d64469fa14089762e05017",
        "lambda_vs_image.svg": "0bcf62456ff23183916ef400d58b8683e7f17b3638102f94d8decad3723a4c1b",
        "report.json": "fe7046fd6d7bd55a61c63b517d11ab854e340bac335328af248918d2ef6e2aef",
    },
    "schottky.stability.jitter": {
        "status": 0,
        "stdout": "79ddd71f32983f2128fa83b1fc18769e5137633f59b7886fd850d0d9df86d5ac",
        "conjugacy.csv": "364c66fa0e51dc27aa216c6143d7e182fd536a9d396054a466bb2820be423f93",
        "lambda_vs_image.svg": "62c5d3a5c3c9cf02a2837e3be9e46f947205de3d833a27278a9fcae06ffb1e6b",
        "report.json": "41ec903f7f101199839cad726311923db083e1fde4a88fd553ad0be6145e2fe9",
    },
    "schottky.verify-expansion": {
        "status": 0,
        "stdout": "9d11fba87d6fe4583f37fdeb637ac778eda6d634e1b88f6144c24b8b2e671b62",
        "checks.csv": "39384c84b3a2960f049774aa5db1eeb35869e3cdf4cbf9cba94be3f84e58084f",
        "cover.svg": "be92363fa45e29d4856783aeb424c4f9afec9dd0ee7e8be2afa7ecc64c1cf599",
        "report.json": "d12308c082c8a10836ff247ccc53dd5785abb79f2e86081860fe51d24e510cc8",
    },
    "zn_projective.certify-shyp": {
        "status": 0,
        "stdout": "3cb5bf4a78ac7308489a4a8f185997576c0f646f372690b411f52142b7f105e0",
        "report.json": "4619693fd777592a17c877ce70967859c511b680c227384127c3f69946028b3d",
    },
    "zn_projective.codes": {
        "status": 0,
        "stdout": "11d6b5ac2fbc2a66f1c3bf69619e178206b33078f1b7a9db40a2091fe3c8f2b3",
        "codes.csv": "4bf81c971dfdd5b39c65e0d29ac7854bee0c60925640ed4d823b6381d24390c1",
        "report.json": "2f9d907d3623dc01ea771c83e8abd22b122313ebc319f16a6939caed2cc704cf",
    },
    "zn_projective.stability": {
        "status": 0,
        "stdout": "b2c461bea582fd60ab64ac1f308e78068d151f1f4acfa064f0d32777b2507cf3",
        "conjugacy.csv": "cb6b363cf6e206f529ee84d137ecde18b6f5f16c9ababd780093f9c9894bf084",
        "report.json": "5aeaecc5dc5da4fa6bf0b7ee4876ae3394c761b57e5089910323904db4fc89fd",
    },
    "zn_projective.stability.jitter": {
        "status": 0,
        "stdout": "b2c461bea582fd60ab64ac1f308e78068d151f1f4acfa064f0d32777b2507cf3",
        "conjugacy.csv": "c5d7f2e130321c9fe90508882a634c2b23b4ed253319e7d745a5b6267fe8c77e",
        "report.json": "c6a7d461dffdde32229841a6be1485a0c480c5897cb2e1c6b1db56ac27a299fb",
    },
    "zn_projective.verify-expansion": {
        "status": 0,
        "stdout": "c2b9b9a9101256b18616b7662338302a6086afaa70899217befa1c9194796dce",
        "checks.csv": "dbea721c0d610a9cbb64d048996a0178cf4704b28e0f471899ed49aeb8856b19",
        "report.json": "99cf63ab9167d2aeb04a66dd734839208b1aac81e99cfb6aaf052039abbd932c",
    },
}

FAILED = {
    "covered_cyclic.verify-expansion.lambda-50": (
        2, "error: no cover member for Point(CoveredCircle, 0.0): best expansion factor 4 < target 50"),
    "cyclic_hyperbolic.verify-expansion.lambda-100": (
        2, "error: no cover member for Point(Circle, 0.0): best expansion factor 4 < target 100"),
    "free_boundary.stability": (1, "TypeError: perturbations unsupported on FreeBoundary"),
    "free_boundary.verify-expansion.lambda-2.5": (
        2, "error: no cover member for Point(FreeBoundary, 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa'): "
        "best expansion factor 2 < target 2.5"),
    "product.coding-map": (
        1, "ValueError: coding map needs a free or cyclic presentation, not product_swap"),
    "product.stability": (1, "TypeError: perturbations unsupported on DisjointUnion"),
    "product.verify-expansion.lambda-3": (
        2, "error: no cover member for Point(FreeBoundary, 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa'): "
        "best expansion factor 2 < target 3"),
    "product_of_schottky.verify-expansion.lambda-60": (
        2, "error: no cover member for Point(Circle, 5.991367168807175): "
        "best expansion factor 3.34435 < target 60"),
    "schottky.verify-expansion.lambda-60": (
        2, "error: no cover member for Point(Circle, 5.991367168807175): "
        "best expansion factor 3.34435 < target 60"),
    "schottky.verify-expansion.lambda-9.5": (
        2, "error: no cover member for Point(Circle, 5.991367168807175): "
        "best expansion factor 3.34435 < target 9.5"),
    "zn_projective.coding-map": (
        1, "ValueError: coding map needs a free or cyclic presentation, not free_abelian"),
    "zn_projective.verify-expansion.lambda-3.5": (
        2, "error: no cover member for Point(ProjectiveSpace, (1.0, 0.0, 0.0)): "
        "best expansion factor 3 < target 3.5"),
    "zn_projective.verify-expansion.lambda-40": (
        2, "error: no cover member for Point(ProjectiveSpace, (1.0, 0.0, 0.0)): "
        "best expansion factor 3 < target 40"),
}


def test_the_run_matrix_covers_every_supported_pair():
    assert len([n for n in RUNS if n.count(".") == 1]) == 26
    assert set(RUNS) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_the_golden_hashes(name, tmp_path):
    assert run_hashes(name, tmp_path) == GOLDEN[name], (
        f"recorded with numpy {NUMPY_VERSION}, running {np.__version__}"
    )


def test_the_failing_runs_are_each_pinned():
    assert len(FAILING) == 13 and set(FAILING) == set(FAILED)


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_runs_match_their_exit_status_and_last_stderr_line(name, tmp_path):
    assert run_failure(name, tmp_path) == FAILED[name]


@pytest.mark.parametrize(
    "name",
    [f"{kind}.verify-expansion" for kind in SYSTEMS]
    + [f"{kind}.stability.jitter" for kind in JITTERED]
    + ["schottky.stability.bump"],
)
def test_a_reports_config_block_runs_again_to_the_same_outputs(name, tmp_path):
    first = run_hashes(name, tmp_path)
    report = json.loads((tmp_path / name / "report.json").read_text())
    again = tmp_path / "again"
    again.mkdir()
    assert run_hashes(name, again, report["config"]) == first


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: run_hashes(name, Path(tmp)) for name in sorted(RUNS)}
        failed = {name: run_failure(name, Path(tmp)) for name in sorted(FAILING)}
    print(f"# numpy {np.__version__}")
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    print()
    print("FAILED = {")
    for name, outcome in failed.items():
        print(f"    {name!r}: {outcome!r},")
    print("}")
