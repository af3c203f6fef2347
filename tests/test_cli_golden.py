"""Byte-identical CLI output: sha256 of stdout for a fixed set of invocations.

Each case runs `brieskorn.cli.main` in process and compares the exit code
and the sha256 of everything written to stdout with a frozen value.  The
hashes pin the full output of every subcommand in every format it accepts,
single and batch, so any refactor of the report builders or of the
dispatch must leave stdout unchanged to the byte.  The error cases pin the
exit code and the complete stderr envelope of failing invocations.

To regenerate after a deliberate output change, run this module as a script
from the repository root (PYTHONPATH=src python tests/test_cli_golden.py);
it prints both tables with fresh values.
"""

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from brieskorn.cli import main

# Batch files by name; "@name" in an argument vector is replaced by a path.
BATCH_FILES = {
    "mixed": "2 3 3 4\n# a comment\n\n2,3,5\n6 10 45\n2 2 3 3 5\n",
    "small": "2 3 3 4\n3 4 5\n",
    "bad": "2 3 3 4\nnope\n",
    "short": "2 3 3 4\n2 3\n",
    "sparse": "23 41 43\n2 2 2 3 3 3\n",
}

# name -> (argv, exit code, sha256 of stdout)
CASES = {
    "bci-2334-json": (['bci', '2', '3', '3', '4'], 0,
        "6998292b0e4d7a096230560428f162edf0d82256c7c88f1bcf26abc3d5528393"),
    "bci-2334-text": (['bci', '2', '3', '3', '4', '--format', 'text'], 0,
        "4ae4b2b236d8149560c899fb2e1ff5fa34c367393ce1d144f19e6c9e4817762e"),
    "bci-61045-json": (['bci', '6', '10', '45'], 0,
        "16c419142bc9b572f5b664eb8d61a5bb08df81d2eb44b47fb5f283137834b149"),
    "bci-6101415-json": (['bci', '6', '10', '14', '15'], 0,
        "ee9e8523da44caf958fbcab9b23ee628d1a555bf3d6e5ab2be10d4df5f4a96a4"),
    "bci-4556-text": (['bci', '4', '5', '5', '6', '--format', 'text'], 0,
        "95235b74747ab8e0125f29fb9fde01079bcd569327c30244c878f18cf4d368ce"),
    "bci-532-text": (['bci', '5', '3', '2', '--format', 'text'], 0,
        "779c5551523d75bea5a488db1bee56be40eebc3f1a4502df99493256316548a6"),
    "graph-2334-json": (['graph', '2', '3', '3', '4'], 0,
        "0dab0fc929f74bba92811a5d858e439ba6e3b48f20e0e0c32f529f9ec65c2d99"),
    "graph-2334-text": (['graph', '2', '3', '3', '4', '--format', 'text'], 0,
        "eddcb7583ecdda9c8a598e7642f00a6718bcbb8516ecd9d5b15bed5a9139707e"),
    "graph-235-dot": (['graph', '2', '3', '5', '--format', 'dot'], 0,
        "dbe9e21aaaef490f15d88ae0ff30c1dcee3ead9d22c41dd305b02fcda7a5d528"),
    "graph-6101415-dot": (['graph', '6', '10', '14', '15', '--format', 'dot'], 0,
        "997b309f951eb3db27ea361a2dabfa8bb5ba56b9361ee4ba0eb9f7cc458e50d2"),
    "cycles-2334-json": (['cycles', '2', '3', '3', '4'], 0,
        "350afd069d99bf0961839e695d82cf2e8e6e310e559119fcc1cb3c3779742719"),
    "cycles-2334-text": (['cycles', '2', '3', '3', '4', '--format', 'text'], 0,
        "e2b6c9aeb8560446dc900bbfa7a95dcc0276c2ea163b9eef0712fb1ab58c660c"),
    "cycles-2334-order3-json": (['cycles', '2', '3', '3', '4', '--order', '3'], 0,
        "e05ea1cca0171824470b1983946a3fe9f7ab1a4507b05cd9447515bad5186c49"),
    "cycles-2334-order3-text": (['cycles', '2', '3', '3', '4', '--order', '3', '--format', 'text'], 0,
        "bfb03131857b97883b1163f5f67ab68ea5d6ff4cd81b53d538800d337fcb4a2a"),
    "cycles-2334-order0-json": (['cycles', '2', '3', '3', '4', '--order', '0'], 0,
        "92a82fda4eb6d1511fb6626b6f8673c9d25b9ca351c652e18866a240b0be40d7"),
    "cycles-61045-order3-json": (['cycles', '6', '10', '45', '--order', '3'], 0,
        "013322c7cf51924dc202ad23ec57a3cac08426d9e3c632fb21803090ed186a2a"),
    "pg-2334-text": (['pg', '2', '3', '3', '4'], 0,
        "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8"),
    "pg-2334-json": (['pg', '2', '3', '3', '4', '--format', 'json'], 0,
        "336ef6de6f80706d0ae93911a5950840266496fb6e717022adf066ad4aa119a6"),
    "pg-61045-text": (['pg', '6', '10', '45', '--format', 'text'], 0,
        "dbf95f7435bcafd288ad6b6183f67a47dbdb3d0e8bf3af7d5be76debd3ffb9e6"),
    "pgmax-2334-text": (['pgmax', '2', '3', '3', '4'], 0,
        "917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469"),
    "pgmax-2334-json": (['pgmax', '2', '3', '3', '4', '--format', 'json'], 0,
        "5266bc21dc6b3f9019e4e3511d81bfeb0389ab97dcc39d908ae1f3e0fe07b9b0"),
    "pgmax-222-json": (['pgmax', '2', '2', '2', '--format', 'json'], 0,
        "01be319d052204158e2980bb4cae208b84daa93be95a05471871f65c41bb8b05"),
    "pgmax-2510-json": (['pgmax', '2', '5', '10', '--format', 'json'], 0,
        "bb186395f25843bde8ac7201f205d46bcc1ea53bf5c7b7e947e390d85ffd0382"),
    "pgmax-4556-json": (['pgmax', '4', '5', '5', '6', '--format', 'json'], 0,
        "4b5cae3542fc1e3ee202310b91ea80508495083a1b76fbac7bb0aff99293b4a7"),
    "series-2334-json": (['series', '2', '3', '3', '4'], 0,
        "39602b0215218b099e142c2e1163926e1e718dbb0ef6a58d7ec8605dc02c1a21"),
    "series-2334-text": (['series', '2', '3', '3', '4', '--format', 'text'], 0,
        "d9472e3f49fabbae92d03ab2f14e5c66545b1d21b951bb6f2a1bc6b0facba5fa"),
    "series-2334-order8-json": (['series', '2', '3', '3', '4', '--order', '8'], 0,
        "fef4f5f105758879d50d1e2e30990e4995d7492b53c2bebc152d922937ef6346"),
    "series-2334-order8-text": (['series', '2', '3', '3', '4', '--order', '8', '--format', 'text'], 0,
        "692c1c47935e3ae86c1cbb2ccf283490d564511f8832c7c1c97c7a6b0f8e109d"),
    "series-61045-json": (['series', '6', '10', '45'], 0,
        "516163583e68a256554cece9c17b884b7305f3079494f7ecd08ae2684fcc156f"),
    "semigroup-text": (['semigroup', '4', '5', '11', '9'], 0,
        "c2a0cbc7b3c8f8495350907d44b417378035932cee8c0c5254bf069b196af659"),
    "semigroup-gcd2-text": (['semigroup', '4', '6'], 0,
        "a7acbb9dc9616aaf9b4d57a8dcb70be5c2279d2f23e1b38eecb1c22f455c9eac"),
    "semigroup-json": (['semigroup', '4', '5', '11', '9', '--format', 'json'], 0,
        "efefabe889c4acdd6ce039f72539a7b5be9b77df99321291232c6df5b4c8615d"),
    "semigroup-member-text": (['semigroup', '15', '9', '2', '--member', '3'], 0,
        "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    "semigroup-member-json": (['semigroup', '4', '6', '--member', '8', '--format', 'json'], 0,
        "40f2f7959ee13967bbffe2c23b7157e848bed4d7bad7ee61b6a5ebc2a9844c8f"),
    "case2334-1111-json": (['case2334', '--overrides', '1,1,1,1'], 0,
        "7a6580d8220993dba940010021124598bfe7767b8a81cfb04cabd01a98450063"),
    "case2334-0112-text": (['case2334', '--overrides', '0,1,1,2', '--format', 'text'], 0,
        "7b54f1c47a2cee40bad99beba4e11e903a8e85ef1d5fbafa4cc4df06b251e0c7"),
    "case2334-0101-json": (['case2334', '--overrides', '0,1,0,1', '--format', 'json'], 0,
        "bc7f1d0cb6e5c4ec85086e8754e8dbb82d337b6e6980a9163b4cd5347e2f8a8a"),
    "table-all-tsv": (['table'], 0,
        "24a22f35af304010d2f99c7a35ea904353862144d1287a44c1243688b449b8bc"),
    "table-1-tsv": (['table', '1', '--format', 'tsv'], 0,
        "5e6ff15b928e63d5a168115ec2240e20b33b0d28ede221e5a1350e05f90b370a"),
    "table-2-tsv": (['table', '2'], 0,
        "ad7f7080bd191adddf75d55f6dbcef64886c51277a46e2da1cea872f766b1e8d"),
    "table-all-json": (['table', 'all', '--format', 'json'], 0,
        "024f225e3347c37a300068859f25411f8a5832ce62c002114e2f286d42e082e1"),
    "table-1-json": (['table', '1', '--format', 'json'], 0,
        "ea7783d648ace347344faa0be16cd93dff7f3c12b2525e1882f7e309d265739e"),
    "table-2-json": (['table', '2', '--format', 'json'], 0,
        "f0acbfb71d219692f3e7b865505405a1826ff5593478f40a3810a7de12a173b6"),
    "batch-bci-json": (['bci', '--batch', '@mixed'], 0,
        "5205c05c58beb579ca6b85332337f4a81a3525a9a61d77a25871e0b152e5e261"),
    "batch-graph-json": (['graph', '--batch', '@mixed'], 0,
        "3cc7f3f06ed094d37bc582ba93288bb8519c3624e8facfa9058f43b5baaddfd9"),
    "batch-cycles-json": (['cycles', '--batch', '@mixed'], 0,
        "996848c43d5869ee2aaef20ebd859169ebaaa415d8aff04d7c3bf346d727c897"),
    "batch-pg-json": (['pg', '--batch', '@mixed'], 0,
        "7a15f9966dc96a581d2ebc8fb139f302d610de1af8c22475199713eb57a0add8"),
    "batch-pgmax-json": (['pgmax', '--batch', '@mixed'], 0,
        "3077eb0189f6c326064d142f66c8294297efb22f3cc8df4d308074e830b3800d"),
    "batch-series-json": (['series', '--batch', '@mixed'], 0,
        "727c0c94a655f43d2042cce291382efc9faf22304c09ee533623e737bb915b52"),
    "batch-cycles-order3-json": (['cycles', '--batch', '@small', '--order', '3'], 0,
        "62343515ab32f47a4c32fcc474377add89f14b166888870b71f5a7d21aa86737"),
    "batch-series-order8-json": (['series', '--batch', '@small', '--order', '8', '--format', 'json'], 0,
        "772df18c27ebd4a1b0d5ed823c35d81b5cad4d8c190a94c39a3bce4825c451d5"),
    "batch-pg-text": (['pg', '--batch', '@mixed', '--format', 'text'], 0,
        "25f30067d3082a4ccc44e1353a83c1e442451634dc480f3cd36092f6dad4cd93"),
    "batch-pgmax-text": (['pgmax', '--batch', '@mixed', '--format', 'text'], 0,
        "3d4568ec64ac8922cfa0e0b321b908561a1f6d59e5843935c88cf49a424735f6"),
    "bci-222333-json": (['bci', '2', '2', '2', '3', '3', '3'], 0,
        "be5aecf8f8456a8c26d67db5be46a7e7e1544408ef6c614506f9823827e12cd5"),
    "series-234143-order64-json": (['series', '23', '41', '43', '--order', '64'], 0,
        "fed325974179937a780c17940cd129f0570369e19140dad46ed582a6a9b07d59"),
    "batch-bci-sparse-json": (['bci', '--batch', '@sparse'], 0,
        "0f093837766fc99608348694eb27895f391228635b7482f62023cc76b02d071a"),
    "batch-series-sparse-json": (['series', '--batch', '@sparse'], 0,
        "3ccf2dfb0c29dc62a67858af0e21e3d7d8729e903f1f885aef43e5b523cb4bb4"),
}

# name -> (argv, exit code, stderr); stdout is empty for all of them
ERRORS = {
    "bci-exponent-too-small": (['bci', '2', '3', '1'], 2,
        '{"error":{"code":2,"kind":"input","message":"exponents must be >= 2: [2, 3, 1]"}}\n'),
    "bci-too-few-exponents": (['bci', '2', '3'], 2,
        '{"error":{"code":2,"kind":"input","message":"need at least three exponents, got 2"}}\n'),
    "bci-no-exponents": (['bci'], 2,
        '{"error":{"code":2,"kind":"input","message":"an exponent tuple is required (or --batch FILE)"}}\n'),
    "pg-not-integer": (['pg', '2', '3', 'x'], 2,
        '{"error":{"code":2,"kind":"input","message":"exponents must be integers, got [\'2\', \'3\', \'x\']"}}\n'),
    "unknown-subcommand": (['bogus'], 2,
        '{"error":{"code":2,"kind":"input","message":"argument subcommand: invalid choice: \'bogus\' (choose from \'bci\', \'graph\', \'cycles\', \'pg\', \'pgmax\', \'series\', \'semigroup\', \'case2334\', \'table\')"}}\n'),
    "no-subcommand": ([], 2,
        '{"error":{"code":2,"kind":"input","message":"missing subcommand; see --help"}}\n'),
    "bad-format-choice": (['pg', '2', '3', '4', '--format', 'dot'], 2,
        '{"error":{"code":2,"kind":"input","message":"argument --format: invalid choice: \'dot\' (choose from \'text\', \'json\')"}}\n'),
    "series-negative-order": (['series', '2', '3', '4', '--order', '-1'], 2,
        '{"error":{"code":2,"kind":"input","message":"--order must be >= 0"}}\n'),
    "series-negative-order-first": (['series', '--order', '-1'], 2,
        '{"error":{"code":2,"kind":"input","message":"--order must be >= 0"}}\n'),
    "semigroup-zero": (['semigroup', '0', '3'], 2,
        '{"error":{"code":2,"kind":"input","message":"generators must be positive, got 0"}}\n'),
    "case2334-inconsistent": (['case2334', '--overrides', '0,1,0,2'], 3,
        '{"error":{"code":3,"kind":"model","message":"quotient by the degree-2 and degree-6 elements has negative coefficient at degree 13: 1 + 2t^7 + t^8 + t^10 + t^11 - t^13 + t^15"}}\n'),
    "case2334-h3-h5-rule": (['case2334', '--overrides', '1,1,0,1'], 3,
        '{"error":{"code":3,"kind":"model","message":"h0(D_3) = 1 makes D_3 trivial, so D_5 ~ D_2 forces h0(D_5) = 1"}}\n'),
    "case2334-two-values": (['case2334', '--overrides', '1,1'], 2,
        '{"error":{"code":2,"kind":"input","message":"--overrides needs exactly four values h3,h4,h5,h7"}}\n'),
    "case2334-out-of-range": (['case2334', '--overrides', '3,1,1,1'], 2,
        '{"error":{"code":2,"kind":"input","message":"h3 = 3 outside its admissible range [0, 1]"}}\n'),
    "case2334-missing": (['case2334'], 2,
        '{"error":{"code":2,"kind":"input","message":"the following arguments are required: --overrides"}}\n'),
    "batch-and-positional": (['pg', '2', '3', '4', '--batch', '@small'], 2,
        '{"error":{"code":2,"kind":"input","message":"give either positional exponents or --batch, not both"}}\n'),
    "batch-dot-format": (['graph', '--batch', '@small', '--format', 'dot'], 2,
        '{"error":{"code":2,"kind":"input","message":"batch mode supports --format json or text"}}\n'),
    "batch-text-refused": (['bci', '--batch', '@small', '--format', 'text'], 2,
        '{"error":{"code":2,"kind":"input","message":"batch --format text is only available for pg and pgmax; use json"}}\n'),
    "batch-text-refused-cycles": (['cycles', '--batch', '@small', '--format', 'text'], 2,
        '{"error":{"code":2,"kind":"input","message":"batch --format text is only available for pg and pgmax; use json"}}\n'),
    "batch-bad-line": (['pg', '--batch', '@bad'], 2,
        '{"error":{"code":2,"kind":"input","message":"batch line 2 is not an exponent tuple: \'nope\'"}}\n'),
    "batch-short-tuple": (['pg', '--batch', '@short'], 2,
        '{"error":{"code":2,"kind":"input","message":"batch line 2 (2,3): need at least three exponents, got 2"}}\n'),
    "batch-short-tuple-text": (['pgmax', '--batch', '@short', '--format', 'text'], 2,
        '{"error":{"code":2,"kind":"input","message":"batch line 2 (2,3): need at least three exponents, got 2"}}\n'),
}


def run_case(argv, tmpdir):
    argv = [os.path.join(tmpdir, a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_batch_files(root):
    for name, text in BATCH_FILES.items():
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write(text)


@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("batch"))
    write_batch_files(root)
    return root


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_is_byte_identical(name, batch_dir):
    argv, code, digest = CASES[name]
    got_code, out, _ = run_case(argv, batch_dir)
    assert (got_code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest)


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_cli_error_envelope_is_unchanged(name, batch_dir):
    argv, code, stderr = ERRORS[name]
    assert run_case(argv, batch_dir) == (code, "", stderr)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_batch_files(tmp)
        sys.stdout.write("CASES = {\n")
        for name, (argv, _, _) in CASES.items():
            code, out, _ = run_case(argv, tmp)
            sys.stdout.write('    "%s": (%r, %d,\n        "%s"),\n'
                             % (name, argv, code,
                                hashlib.sha256(out.encode("utf-8")).hexdigest()))
        sys.stdout.write("}\n\nERRORS = {\n")
        for name, (argv, _, _) in ERRORS.items():
            code, _, err = run_case(argv, tmp)
            sys.stdout.write('    "%s": (%r, %d,\n        %r),\n' % (name, argv, code, err))
        sys.stdout.write("}\n")
