"""The comparison logic of ``tools/parity.py``, with no replay run."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def test_parity_compare_and_digest_lines():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    ours = {"pipeline-cyclo": "0" * 64, "eigen seed 7": "1" * 64,
            "burnside centralizers": "2" * 64}

    assert parity.compare(ours, dict(ours)) == (
        ["MATCH  pipeline-cyclo", "MATCH  eigen seed 7", "MATCH  burnside centralizers"], 0)
    changed = {**ours, "eigen seed 7": "f" * 64}
    assert parity.compare(ours, changed) == (
        ["MATCH  pipeline-cyclo", "DIFF  eigen seed 7", "MATCH  burnside centralizers"], 1)
    lines, status = parity.compare(ours, {**ours, "tori seed 7": "3" * 64})
    assert lines[-1] == "DIFF  tori seed 7" and status == 1
    lines, status = parity.compare({**ours, "moduli": "4" * 64}, ours)
    assert lines[-1] == "DIFF  moduli" and status == 1

    # The digest lines read back among the replays' count lines.
    text = "\n".join(["root .  seeds 7", "eigen seed 7  rank 2  4200 factors (311 rational)",
                      *(parity.digest_line(name, h) for name, h in ours.items()), "MATCH  moduli"])
    assert parity.read_digests(text) == ours
