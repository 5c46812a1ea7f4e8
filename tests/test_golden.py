"""Golden artifact digests: catch a silent change of output between commits.

Criterion 9 only compares two runs of the same code.  These sha256 digests of
``trajectory.csv`` and ``metrics.txt`` were recorded for three fast presets
before the propagator's per-step set-up and the CSV writer were rewritten, and
those of ``heatmap.svg`` before the SVG cell loop was rewritten; they must stay
unchanged by any change that claims bit-identical outputs.  The
digests hold only for the numpy and scipy versions they were recorded with;
under any other version the test skips and names both.  The same holds for
the pinned matvec counts of three presets.
"""

import hashlib

import numpy as np
import pytest
import scipy

from nhlattice import Operator, run_preset
from nhlattice.cli import main as cli_main

#: versions the digests below were recorded with
GOLDEN_NUMPY = "2.4.6"
GOLDEN_SCIPY = "1.17.1"

GOLDEN = {
    ("transport", "fig3a"): {
        "trajectory.csv": "29cee9a957ad68cf59a4805f0af54e04c6adf5cd4e72249d1517de3181eec26b",
        "metrics.txt": "d1199255281ea88a20a8f546dd15ddd2e7c4c7265499f51f32d82168ab65bf8b",
        "heatmap.svg": "c8ae32caed76986d1e29b1c05ad714affdcfe6adaea222bc82655660bb455194",
    },
    ("transport", "fig4c"): {
        "trajectory.csv": "97355c2a579fa40fd56b5ae6f77e81cdcf140662bdf7e677e69eab62e46a5871",
        "metrics.txt": "821aa938c63c63d6cbf811d3a924e9805c660a9d773227a8d17de64fc2c5e037",
        "heatmap.svg": "69e3db69b4466c5e2d74f693826419b2a1a12e528f4b35d80081e35d84e8af16",
    },
    ("reduce-check", "reduction"): {
        "trajectory.csv": "102202d7c0fc460cb91556d79c1853ea95c3e66492cd550030bb7915d0476dbb",
        "metrics.txt": "6c7f760c315edd8655b16a5cbfa4dbeba559e915cbf7ed19287eb1cea95b815b",
        "heatmap.svg": "5f549a3948efcc292260191e3bbdd5f5d136d7b22534eff9f350982ca407dc10",
    },
}


@pytest.mark.parametrize("sub,preset", sorted(GOLDEN), ids=lambda v: v)
def test_preset_artifacts_match_golden_digests(tmp_path, sub, preset):
    if (np.__version__, scipy.__version__) != (GOLDEN_NUMPY, GOLDEN_SCIPY):
        pytest.skip(f"digests recorded with numpy {GOLDEN_NUMPY}, scipy {GOLDEN_SCIPY}; "
                    f"installed numpy {np.__version__}, scipy {scipy.__version__}")
    assert cli_main([sub, "--preset", preset, "--out", str(tmp_path), "--format", "csv+svg"]) == 0
    for name, digest in GOLDEN[(sub, preset)].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


#: Operator.matvec calls of one run of each preset, recorded with the
#: versions above before the propagator's stop test was made lazy; a
#: changed Taylor stop decision shows here as a count, not only as a digest
MATVEC_COUNTS = {"fig4c": 1741, "fig7": 10046, "reduction": 13155}


@pytest.mark.parametrize("preset", sorted(MATVEC_COUNTS))
def test_preset_matvec_count_matches_recorded(monkeypatch, preset):
    if (np.__version__, scipy.__version__) != (GOLDEN_NUMPY, GOLDEN_SCIPY):
        pytest.skip(f"counts recorded with numpy {GOLDEN_NUMPY}, scipy {GOLDEN_SCIPY}; "
                    f"installed numpy {np.__version__}, scipy {scipy.__version__}")
    calls = []
    matvec = Operator.matvec

    def counted(self, x):
        calls.append(None)
        return matvec(self, x)

    monkeypatch.setattr(Operator, "matvec", counted)
    run_preset(preset)
    assert len(calls) == MATVEC_COUNTS[preset]
