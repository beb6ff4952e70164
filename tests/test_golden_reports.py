"""Golden report digests: verify reports stay byte-identical.

Each config runs every suite through the console entry point and pins
the SHA-256 of the report bytes.  Any change to a report, be it a check
id, a status, a witness or the key order, fails here; a deliberate
report change re-pins its digest in the same commit.
"""
import hashlib
import json

import pytest

from dunkldirac import cli

# name -> (config, SHA-256 of its report); every config runs all suites
GOLDEN = {
    "S3": (
        {"group": "S3", "c": "1/3", "max_degree": 3},
        "79ea70221341701c6e84bae28708e8058a29ecb6db13b9517429c599002014a7"),
    "B2-orbits": (
        {"group": "B2", "c": {"short": "1/3", "long": "1/5"},
         "max_degree": 4},
        "4b88f684938e17892ca90b54c4309412f50bc6fefa3caea6d03d2ca24fbc9d45"),
    "A1": (
        {"group": "A1", "c": "1/3", "max_degree": 4},
        "f25d4a998677c9a54d981fcaab1ad3ee3c781a14a90f6d3ac2d012b2de0f299c"),
    # I2(4) with roots in Q(sqrt2): two orbits of equal length
    "I2(4)-sqrt2": (
        {"group": {"roots": [["1", "0"], ["0", "1"],
                             ["1/2*sqrt2", "1/2*sqrt2"],
                             ["1/2*sqrt2", "-1/2*sqrt2"]]},
         "c": "1/3", "max_degree": 3},
        "0b5c9bae35c23c5ffa056026d1b99988331a68d5fdf644f01aef3307a2bfd1ae"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(tmp_path, name):
    config, digest = GOLDEN[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--config", str(path),
                     "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
