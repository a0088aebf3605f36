"""Golden output: a fixed set of CLI commands, run in-process, whose stdout
and written files must match pinned SHA-256 digests byte for byte.

Every text the CLI writes is deterministic (no timings, no hash order), so
a change that means to keep the output must keep these digests.  A change
that means to alter the output must update the digests and say why.
"""
import contextlib
import hashlib
import io
import os
from typing import Dict

import pytest

from cgd import cli, get_dynamics
from cgd.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from cgd.families import bare_tapes, shift_closure, single_head_tapes
from cgd.modulo import disk
from cgd.patches import RuleTable, identity_local_rule, serialize_rule_file

# A 4-cell tape x9-z0-k1-q7 with its head on k1, pointed at z0, written
# with non-canonical ids in a scrambled declaration order.
TAPE_TEXT = """\
vertex q7 label=0
edge k1:a q7:b
ports a b c d
vertex k1 label=0
edge z0:a k1:b
vertex h label=0
vlabels 0
edge k1:c h:c
vertex z0 label=0
edge x9:a z0:b
vertex x9 label=0
pointer z0
"""


def identity_rule_text() -> str:
    """The radius-1 identity rule on the disks of all bare and single-head
    tapes of at most 6 cells."""
    rule = identity_local_rule(1)
    entries = {}
    for X in shift_closure(bare_tapes(6) + single_head_tapes(6)):
        view = disk(X, 1)
        if view not in entries:
            entries[view] = rule.rule(view)
    return serialize_rule_file(RuleTable(radius=1, entries=entries))


def golden_run(root) -> Dict[str, str]:
    """Run the command set with every file under `root`; return the digest
    of each command's stdout (with `root` replaced by `<tmp>`) and of each
    file under `root`, keyed by its relative path."""
    root = str(root)
    tape = f"{root}/tape.graph"
    rules = f"{root}/identity-r1.rules"
    with open(tape, "w", encoding="utf-8") as handle:
        handle.write(TAPE_TEXT)
    with open(rules, "w", encoding="utf-8") as handle:
        handle.write(identity_rule_text())
    commands = [
        ("enumerate", EXIT_OK,
         ["enumerate", "--ports", "a", "b", "--vlabels", "0", "1",
          "--max-vertices", "4", "--output", f"{root}/family.txt"]),
        ("verify-moving-head", EXIT_OK,
         ["verify", "--dynamics", "moving-head", "--family", "tape-closure",
          "--max-vertices", "6", "--output-dir", f"{root}/verify-mh"]),
        ("verify-moving-head-all", EXIT_OK,
         ["verify", "--dynamics", "moving-head", "--family", "all",
          "--max-vertices", "2", "--output-dir", f"{root}/verify-mh-all"]),
        ("verify-turtle", EXIT_OK,
         ["verify", "--dynamics", "turtle", "--family", "all",
          "--max-vertices", "4", "--expect-exceptions", "2",
          "--output-dir", f"{root}/verify-turtle"]),
        ("verify-inflating-grid", EXIT_CHECK_FAILED,
         ["verify", "--dynamics", "inflating-grid", "--family", "all",
          "--max-vertices", "2", "--output-dir", f"{root}/verify-grid"]),
        ("run-moving-head", EXIT_OK,
         ["run", "--dynamics", "moving-head", "--input", tape, "--steps", "3",
          "--render", "--output-dir", f"{root}/run-mh"]),
        ("run-rule-file", EXIT_OK,
         ["run", "--rule-file", rules, "--input", tape, "--steps", "1",
          "--output-dir", f"{root}/run-rule"]),
        ("decompose", EXIT_OK,
         ["decompose", "--dynamics", "moving-head", "--input", tape,
          "--trace", "--render", "--output-dir", f"{root}/decompose"]),
        ("check-blocks", EXIT_OK,
         ["check-blocks", "--dynamics", "moving-head", "--max-vertices", "4"]),
        ("check-blocks-identity", EXIT_OK,
         ["check-blocks", "--dynamics", "identity", "--max-vertices", "5"]),
        ("check-blocks-rule-file", EXIT_OK,
         ["check-blocks", "--rule-file", rules, "--max-vertices", "4"]),
        ("export-dot", EXIT_OK,
         ["export-dot", "--input", tape, "--output", f"{root}/tape.dot"]),
        ("export-dot-marked", EXIT_OK,
         ["export-dot", "--input", f"{root}/decompose/stage001.graph",
          "--marked"]),
    ]
    digests = {}
    for name, code, argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == code, name
        text = out.getvalue().replace(root, "<tmp>")
        digests[f"stdout:{name}"] = _sha256(text.encode("utf-8"))
    for path in sorted(_files(root)):
        with open(f"{root}/{path}", "rb") as handle:
            digests[path] = _sha256(handle.read())
    return digests


def _files(root):
    for folder, _dirs, names in os.walk(root):
        for name in names:
            yield os.path.relpath(os.path.join(folder, name), root).replace(os.sep, "/")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Computed on the code these outputs were last changed by.
GOLDEN: Dict[str, str] = {
    "stdout:enumerate":
        "8d9925dd895adc5c5f4eed6d9c339cc41ff94044b32c2f67dfda7cbe0d7ce973",
    "stdout:verify-moving-head":
        "830e63f8dfe0f95649c13fd6be7f74b32b520c645d777e7d1eb92e0db5eef66b",
    "stdout:verify-moving-head-all":
        "a0bf0def2154fa6b43eb3295cfb8f708388c8226cbe3533a3f5b94fab70f84b8",
    "stdout:verify-turtle":
        "4d23dc4907a89df4961507732611aa9d67866ead370e8d97f4982be9fae782d0",
    "stdout:verify-inflating-grid":
        "46eb6f17f4da8161899d405e88b9190137921493c1d9ce9192f4bc11a3a9257d",
    "stdout:run-moving-head":
        "e0d0dfd117d18f5c2188b251f4583df2fdcc4b4ac01e1fdc127187cf432dd66c",
    "stdout:run-rule-file":
        "a4cce7eadc26b65c822725e3278d4812bd7584a06ab4187798f93495311fff80",
    "stdout:decompose":
        "1c5bea0e1db5cbea9a355f61fbd58f7805022e304cead84fcc7fc0999f6bd76f",
    "stdout:check-blocks":
        "ddf74eaff2a233310ce134ae43ad1e46069ad4857eb80fdbced6498d30ef8479",
    "stdout:check-blocks-identity":
        "aaba32941254ad29e1e94fd2240202c3462d0be448e07a6d0483c2f4b3f047f7",
    "stdout:check-blocks-rule-file":
        "c3893f735fcb47f212611ebeed7414379012ce144a0b21fe2151ab5321441c19",
    "stdout:export-dot":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "stdout:export-dot-marked":
        "f83ad4ab8fb502c52b90c20afe2bbd53a3c02eb07fd0175687eb078fa7bdb59f",
    "decompose/stage000.dot":
        "c178f561531e1b1e2b045f9165d6988a40895518ce45831a08e0d56aa9c3c92e",
    "decompose/stage000.graph":
        "0d29a9b66e367f39e3d9ea9c03a3d0fa4920d311ea425a1a5fecfdee04c25cc6",
    "decompose/stage001.dot":
        "f83ad4ab8fb502c52b90c20afe2bbd53a3c02eb07fd0175687eb078fa7bdb59f",
    "decompose/stage001.graph":
        "e97f4641cc1711de3ee0c413dbd4e1c878e1685b2796312010de807667a35c91",
    "decompose/stage002.dot":
        "377daa2f09449cfe4d9e2e9ddb9aa9dca9c7df6357fcdd197d375f9f7c274691",
    "decompose/stage002.graph":
        "a580986abf0840db22e4e051fb5f1c1d5e1caf26b42bf4d7c18e543bed7e03ee",
    "decompose/stage003.dot":
        "2a14b8892ba0e41959e513eb64210364a707000dbbf82ad2aed86d10bc1a949a",
    "decompose/stage003.graph":
        "8ef1da9f4904fafecaf607592473e56ab73a9649a89acee4887ad75636921750",
    "decompose/stage004.dot":
        "733dddf9c452d4c82399744ce3a91dd966d48cb37ac38452d6f260033c0153fe",
    "decompose/stage004.graph":
        "c4ebf3f2a4516bc77fc341fcdbe6edcf1efed7d21f3b00372ae3767671e0e6fd",
    "decompose/stage005.dot":
        "cdbb3da38a189f392592cc3c5800d5aa70f8dcd0a10076b0352f464da0a49e5f",
    "decompose/stage005.graph":
        "4ffdb216654564a71eb0eda9c12e717ffd36f8e42b2e05aa83aadbec48419508",
    "decompose/stage006.dot":
        "d71080f2bdf9c8af8b2f64f73511d62cc66cf0ac4a8dad77d233ba053ea710fa",
    "decompose/stage006.graph":
        "e640ddc023a4294a0fd34ae0a590c1053cf0e0cf852374518827659431ebde57",
    "decompose/stage007.dot":
        "4f5eadc0dc32d673c21cbe91d559b800f7e8115372c8196cf8cb5b7a619a41f9",
    "decompose/stage007.graph":
        "30ef86ba167369be4d1fb6d6c5b87970f6d33773695543695467a5fd8c741545",
    "decompose/stage008.dot":
        "364e16e4b9727785c85f0f53a763825c2deef045b16e5aea6a89e277ce7dd6bb",
    "decompose/stage008.graph":
        "d3e24796f7433f2f76b0cfd559277142422610e056e702c2e2d0149a348916ba",
    "decompose/stage009.dot":
        "60ad79b03b9d0ee8b96f99ea21f1daa4e2facfea4491a1a6d5d76c5830d42e78",
    "decompose/stage009.graph":
        "bf6479106cc4882a92c22ed23f3de94cab8bc187d4a8c7922feb7957b884fc0f",
    "decompose/stage010.dot":
        "4286f795625b7a81fca6c7afc4942f970a4fa0bea00598dbfe3b7a7b69a2f646",
    "decompose/stage010.graph":
        "057170a2b4a35f9496b8fdfbbda0b20dbe5b4251d04bae161756640665e88424",
    "decompose/stage011.dot":
        "6aab4aff11cfb1c3c88b60358867b18af300855049492e4d949b913e48dccc3a",
    "decompose/stage011.graph":
        "abf82778de22218cfebef67eb35da7ce4b74abc0f4ac2aa501907763d2f40c74",
    "family.txt":
        "813226b816e568a5c26bd46e64f51c3be687b3de99662d1e66233856345284ad",
    "identity-r1.rules":
        "1d6780112b2362ce623a1154c001080f41f359916d09c891790ba02efb09c6cc",
    "run-mh/step000.dot":
        "ec62247c3645e735d188e7b66271c37ac4c239ca50e1f236333d2e0907320131",
    "run-mh/step000.graph":
        "ebb27c1a470ddb1fdb39bcb3c8d316bdfc55ff79f00a1cad2a511e6df4593f9f",
    "run-mh/step001.dot":
        "6aab4aff11cfb1c3c88b60358867b18af300855049492e4d949b913e48dccc3a",
    "run-mh/step001.graph":
        "1f4edcfe235adece08e1df7321e48fd1ed63b9e9a6db19b16cfe7e9e3232a437",
    "run-mh/step002.dot":
        "55d57abee3f911f6e55b135ef3e54439df65fa744ac5e02c8ec2b4409036cf33",
    "run-mh/step002.graph":
        "b07bcd9499023125fedd7df872b20b2671af948bf00d2a46e4983336f08ac548",
    "run-mh/step003.dot":
        "c2b9115214e440b5cfa99bc4c7cf4d81c0a58a24e8e6ac1fb2279b6ae3ac3571",
    "run-mh/step003.graph":
        "14ae5fab01ff6dde0d606cf19da117f5ed7687393fd6ad03ac6561c7a8ac04b3",
    "run-rule/step000.graph":
        "ebb27c1a470ddb1fdb39bcb3c8d316bdfc55ff79f00a1cad2a511e6df4593f9f",
    "run-rule/step001.graph":
        "ebb27c1a470ddb1fdb39bcb3c8d316bdfc55ff79f00a1cad2a511e6df4593f9f",
    "tape.dot":
        "ec62247c3645e735d188e7b66271c37ac4c239ca50e1f236333d2e0907320131",
    "tape.graph":
        "1210459a49fc717365027066206d3f09a188c20ccb1e2f819144691a796b8cc4",
    "verify-grid/verify-report.txt":
        "46eb6f17f4da8161899d405e88b9190137921493c1d9ce9192f4bc11a3a9257d",
    "verify-mh-all/inverse-table.txt":
        "416fd5d254353310e67cad0e80bf4c46ccbd8e81c7375661cd5952dbb4b75613",
    "verify-mh-all/verify-report.txt":
        "a0bf0def2154fa6b43eb3295cfb8f708388c8226cbe3533a3f5b94fab70f84b8",
    "verify-mh/inverse-table.txt":
        "67faa8bbcfb7f7832e37510058e1de795538cfdd1274f5c100a030d7ef7cf282",
    "verify-mh/verify-report.txt":
        "830e63f8dfe0f95649c13fd6be7f74b32b520c645d777e7d1eb92e0db5eef66b",
    "verify-turtle/inverse-table.txt":
        "635537bc008edfbbd037478ee10f928522bb59e812bb4229d973ccfa759ceef0",
    "verify-turtle/verify-report.txt":
        "4d23dc4907a89df4961507732611aa9d67866ead370e8d97f4982be9fae782d0",
}


def test_outputs_match_their_golden_digests(tmp_path):
    assert golden_run(tmp_path) == GOLDEN


# The inverse rules of the CLI's tape kits, as rule-file text.
INVERSE_RULE_GOLDEN: Dict[str, str] = {
    "moving-head":
        "662b31c7db8ce6a27300fea77c24f07d99dc241955c66a4d0b5de3a156954a76",
    "identity":
        "8986e0038f5a9d77f16c9dd15da2621fa2178a84a01945a9ee57f15cdada2849",
}


@pytest.mark.parametrize("name", sorted(INVERSE_RULE_GOLDEN))
def test_inverse_rules_match_their_golden_digests(name):
    table = cli._tape_kit(get_dynamics(name)).inverse.table
    text = serialize_rule_file(table.local_rule())
    assert _sha256(text.encode("utf-8")) == INVERSE_RULE_GOLDEN[name]
