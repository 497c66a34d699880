"""The output-digest matrix: a smoke test of its per-run lines, and the
pinned DIMACS of its benchmark-workload instances."""

import hashlib
import importlib.util
import os
import re

from symbreak.cnf import emit_dimacs
from symbreak.pipeline import run
from symbreak.testkit import gen_php

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_outputs():
    spec = importlib.util.spec_from_file_location(
        "outputs", os.path.join(ROOT, "tools", "outputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_php4():
    outputs = load_outputs()
    lines = list(outputs.digest_lines([("php(4)", lambda: gen_php(4))]))
    assert [line.split()[:2] for line in lines] == [
        ["php(4)", config] for config, _ in outputs.CONFIGS]
    for line in lines:
        assert re.fullmatch(r"\S+ \S+ [0-9a-f]{64} [0-9a-f]{64}", line)
    # the two configs that keep row-column emit the same CNF; only the
    # attempt log tells them apart
    (_, _, dimacs_a, stats_a), (_, _, dimacs_b, stats_b) = (
        line.split() for line in lines[:2])
    assert dimacs_a == dimacs_b and stats_a != stats_b
    assert lines[2].split()[2] != dimacs_a
    assert lines == list(
        outputs.digest_lines([("php(4)", lambda: gen_php(4))]))


# SHA-256 of the DIMACS emitted under the default config for each
# instance of the `rowcol`, `johnson` and `coloring` workloads on seeds
# 1-3, in the order the workload builds them; taken as
# `tools/outputs.py` takes its "default" digests.  The emitted CNF for a
# fixed input and seed is the program's contract.
WORKLOAD_DIGESTS = {
    "rowcol:1": (
        "426a5c61bb6bb808c96f534ddc3ef5135844c30568858b45788759e386d8d7fa",
        "e98c776a9eb74fc737c3412a9d339cf99169fd99138939a83270a92a9a8625c0",
        "bd6d228f6109f746e337ce03dbd5ca5d23ce3aed46c438262ee450c911d3b817",
        "b1d92c90d8b62bebeacef137a495d43aab8f216bd67d9bc1f6d41c48645d44c5",
    ),
    "rowcol:2": (
        "49b44118e09a7d748fb14f3135d4f5e3920ca15c12fa6a4cc2022a6c80e28d45",
        "bb217ab7f9cf48e418c461e21e99ffb5e94c68a18d38b612c53fbede1b30faa2",
        "031d9b09c9ab3a60db4521ba6cff7bd44ba02b54b2faac795feb14f0a1a0c0a9",
        "593c5b48443825d02fc943194b68925cc8caca9a46811b3cebc5f7992f6e6bcc",
    ),
    "rowcol:3": (
        "228fd808d5613ca7d8ee7f2a41481b08bf5e3824d28e41a5d37239fbd1abf5e6",
        "992be98e0e628fa6a58ccdfa9189c02664d1b5ffd9eeca837ee82aca6759494f",
        "f7ef102be5338604869f6a94225f6d4b5a6f2ecf7c18b59b15300bd84205a39f",
        "12664185456a76d54441c74978622699e098e153ef87905035c3380b7b9a78a9",
    ),
    "johnson:1": (
        "3888686f91ddf91af96b7864f8bb78f72bb467a85cb77b87be9bcd43725fc9e3",
        "f836cf2204dada51cd68a7b4b6393c4bad2779b01f91abf6c35b61814c940e86",
        "2e29777b7910d117fbd1d594c12cea66a4111d7030b3261d1c73109bd3f6994b",
        "6d37b007bf3fcf9453019a472572b481359cb4cdec0be6d01636a2aed5c329ce",
        "4427f2f96ec77fc41309d7039776a7eed12c8ebc7e00f345cdc56e2e22141aa2",
        "c7fda76372e1858b7ab6800db239cce34c787e174ee6ccebdd43d0915591fde3",
    ),
    "johnson:2": (
        "fe25c67288edcf645f8f17a77ca079323b65df8159e3d6bc4c316b2b7e94950b",
        "acacb8a7c6f134b8c0beebe25e09b6196ba2643d00232985807ef773af2b7518",
        "8a7fbc5e5c7e0dbd073b88430732dcbc386c0c8da6456a8d53bfbe94ad51113d",
        "9a4829df123a0d20cd5ce832d32a2e091e49fdbebe658ccb53f7a2d747806867",
        "8b86ae2127460e949ff549cdd5e6b8aed69ff58b03d633ec57cb56223941322d",
        "47d2f6a2ef2626044f67d535c47438c07c52a4579634548bb8260cf8601b50cb",
    ),
    "johnson:3": (
        "ffdc9a6382c3baf2dbdd32c32aaf49ad5cdc999fd483ab29e5edda881de5a435",
        "c65eed89b1136444d6e65c5089200b1ee1054b37d9a0a796fb92ba347aef579e",
        "c4d796f43a36a6a74c514ad51def9777e375433640080fc972ec463d9d4f3383",
        "8da7dd93444bd82b281e5ab18cb6f791c5dccb1837fa675a3435a2bbdb126444",
        "4ae33755c6bc7063422d82080c74543e203d51be12ed791c50ce2df883e36327",
        "2d73e1bc1a7e485fa72388678498c5397bf9711b341704dbf600c81f25177982",
    ),
    "coloring:1": (
        "cf324cc72f4571c0a7b66c3f9f580c2ecff16b04c71b8613f040390f7b9d1b90",
        "c9ca964ee9b4f7d94edc3b8268bb72318047778052a2a1ae637202d4c5f7d79c",
        "66cabbcbbd1ece72b95c08932bf2a39f889c0ee7c4e6b9f9551e7b502763fc79",
        "28ac8dcf1988616a11bc6eedfbf65a5b9f010fc71356843c668475dd3022d6e0",
    ),
    "coloring:2": (
        "adaa18a00b30c86438aec855cfa151707ee5acc76b154d5f15be988a434dab4c",
        "086ec687eab2bb626f0cc45f8b5e1544244fec9a66c93516a0417d049caffe30",
        "5b829f8b1e40fb99bc13e0d416f6e1e2efc25b1fa98fa6e3086b5da8717ab8ec",
        "df88e2db08c9e9e22dad4de61cdeeb0c83c9c426bab0816fb51b815289db31b2",
    ),
    "coloring:3": (
        "b56dba46b7fdc0c52f8106e8b809d5b297c9e77f534fe9fb2d19dae15e9e878e",
        "167c89453968bd664e4dc1748c8c4898e25c8a5c0ee22f4f8b97924b34b7683d",
        "cc30a20858a0ce7808ad356a0b186b41d12e00f7fa600d37220ab59a52effbc1",
        "ee322595541902cc3f7899e51d61ad2041df9f02ccceb29bc40c60d60a44cf7d",
    ),
}


@pytest.fixture(scope="module")
def outputs_instances():
    return load_outputs().instances()


@pytest.mark.parametrize("key", list(WORKLOAD_DIGESTS))
def test_workload_dimacs_is_pinned(key, outputs_instances):
    digests = []
    for make in (make for name, make in outputs_instances
                 if name.startswith(key + ":")):
        formula = make()
        out = run(formula)
        text = emit_dimacs(formula, added=out.added_clauses,
                           aux_vars=out.aux_count)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert tuple(digests) == WORKLOAD_DIGESTS[key]
