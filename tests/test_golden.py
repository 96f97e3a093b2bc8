"""The stream contract, pinned: every artifact of `tools/golden_digests.py`'s
workflows keeps the bytes listed in tests/golden/contract_<N>.txt for the
current STREAM_CONTRACT.

The list holds on the numpy and python versions in its first header line;
fitted floats may move in their last bits with either (README,
"Reproducibility contract"), so on any other version the test fails and
names both, rather than skipping.  They may also move with the CPU's SIMD
targets and the BLAS build, recorded in the second header line: on a host
whose line differs, only the stream artifacts' digests are held to the list,
with every artifact's presence and exit code, and the test says so.  A
change that moves a digest updates the file, and a change to the random
streams bumps the contract and renames it.
"""

from pathlib import Path

from binarx.experiments import STREAM_CONTRACT

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "golden" / f"contract_{STREAM_CONTRACT}.txt"


def _differ(pinned, got, held) -> list[str]:
    """The artifacts whose lines differ, comparing digests of those `held`
    accepts and the presence and exit code of all."""
    def entry(line):
        digest, code, path = line.split(" ", 2)
        return path, (digest if held(path) else None, code)
    want, have = dict(map(entry, pinned)), dict(map(entry, got))
    return sorted(f for f in want.keys() | have.keys() if want.get(f) != have.get(f))


def test_golden_digests_match_the_pinned_stream_contract(tmp_path, golden_digests):
    tool = golden_digests
    header, host, *pinned = PINNED.read_text().splitlines()
    assert tool.header() == header, (
        f"{PINNED.name} was pinned under '{header}'; this run is '{tool.header()}'")
    got = tool.digests(tmp_path)
    if tool.host() == host:
        held, scope = (lambda path: True), "artifacts differ"
    else:
        held = tool.host_independent
        scope = (f"artifacts differ in a stream digest, presence or exit code (pinned on "
                 f"'{host}', this host is '{tool.host()}', so other digests were not compared)")
        print(f"{PINNED.name} was pinned on '{host}'; this host is '{tool.host()}'. "
              f"Digests compared only for {', '.join(tool.STREAM_ARTIFACTS)}; "
              "presence and exit codes for all.")
    differ = _differ(pinned, got, held)
    if differ:
        print("runs that differ from", PINNED.name)
        print("\n".join(differ))
    assert not differ, f"{len(differ)} {scope} from {PINNED.name}: {differ}"
