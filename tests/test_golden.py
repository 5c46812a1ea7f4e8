"""Golden artifact digests: catch a silent change of output between commits.

Criterion 9 only compares two runs of the same code.  These sha256 digests of
``trajectory.csv`` and ``metrics.txt`` were recorded for three fast presets
before the propagator's per-step set-up and the CSV writer were rewritten, and
those of ``heatmap.svg`` before the SVG cell loop was rewritten; those of the
storage presets fig6a, fig6b and fig7 (a schedule switch, and for fig7 the last
member of an xi sweep) before the CSV was streamed out during propagation.  They
must stay unchanged by any change that claims bit-identical outputs.  The
digests hold only for the numpy and scipy versions they were recorded with;
under any other version the test skips and names both.  The same holds for
the pinned matvec counts of three presets.  The digests of the 15 resolved
preset config documents were recorded before the config schema moved onto
the config dataclasses; rendering uses neither numpy nor scipy, so they
hold under any version.
"""

import hashlib

import numpy as np
import pytest
import scipy

from nhlattice import PRESETS, Operator, preset_config, resolve_config, run_preset
from nhlattice.cli import main as cli_main
from nhlattice.configio import render_config

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
    ("storage", "fig6a"): {
        "trajectory.csv": "bcc60edbc6aa67b6b7824e204446478f648cfb61feed49bd08ebfcf05e87c0ea",
        "metrics.txt": "d86b1d5ef88e1f08e8ad04080145a0d0700e5fb5c5f64b5a814e3016732964d1",
        "heatmap.svg": "28444b2b18dc6e0312ca8a668a690498b91061f4eda4279ef7bee22f904925a2",
    },
    ("storage", "fig6b"): {
        "trajectory.csv": "fd1016afd55348c04a2ca412e63751095f71ff61dac753552afdfedbd1c4840e",
        "metrics.txt": "3a34489665239901cf85d57da8cc4d3309773b2a54f29d7c20f85587aefbab3b",
        "heatmap.svg": "6c9fb225b921b744f94cf22f858d62f890ad0a652fb4070280a11e0812a25afc",
    },
    ("storage", "fig7"): {
        "trajectory.csv": "a7febdb0182f353d8e29f6c62010de7516474899019555fe818ae7c41ab5f58c",
        "metrics.txt": "1dd799ed0d2d92a96afa922ca47917aa8870cbc02c2d79637630fb65df494fa0",
        "heatmap.svg": "f65d448f67b5092754b652308d8f494b9058795c36cd6b8f4adc43f3e28cdd4f",
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


#: sha256 of render_config(resolve_config(preset_config(name))); these fix
#: each preset's manifest body, and with it its config_hash
MANIFEST_DIGESTS = {
    "fig2": "3e4b7874dc7ede2abd1f7c7991269a7784a997da88345cde2aca4c08e0238bae",
    "fig3a": "4649d27c807f1663fa8189f5668c8556cb357ed8d09a66855fb66913a75ed03c",
    "fig3b": "c85c954aba5ac8aa2749a115fc54ed5bdf53de36a427c5064e46d4b5407f295a",
    "fig3c": "3a7c1c7421635bd36bb77850b2c6bd64125a0600517a00e5261da48dff3de5f8",
    "fig3d": "9c9751d3c5fbd603891095b277e9372e188b97d87783312dc31f08e50bd0dc87",
    "fig3e": "ed1043dfc3eb65cb0dbc60a9b50e1668bbe9be0234f1fff08cdf123287985594",
    "fig3f": "3776b3132f0f1e39ad2a2a972bccc4c03996fc64baed124b3617e0a538fda380",
    "fig4a": "3f13fbde55dd8822fb760a4295032dfccc70980ba0b3c846d73aae8f71889dad",
    "fig4b": "ff9b012ceb5473a0ed9df9e0a368090d10616b4a5bf8cdeea4c13df60500fb12",
    "fig4c": "2e7be9d0c261c4ad9ee5010dbf007398845379545e1e849a4b78f956036ee35f",
    "fig4d": "ea3241829d759afdf58fd0022bec628cc7aee39646bc232bf33713ba811c7aff",
    "fig6a": "6fd9138eaa70852cf1eca034c4ff33ac58346ac2aedc3a74690153d76d9671a1",
    "fig6b": "ed6a5080014c89802229530c9ca8f56a7105546329724e7b1b062223dbd567a0",
    "fig7": "c9e4aea9076d1ebaf8473ce228f60ed5c5daf0cc7e5d065fbaed14403057d894",
    "reduction": "dc5172ecfd3db819cd0a6048900adbc338eca10cdd8282116e9d70337d727379",
}


def test_manifest_digests_cover_every_preset():
    assert sorted(MANIFEST_DIGESTS) == sorted(PRESETS)


@pytest.mark.parametrize("preset", sorted(MANIFEST_DIGESTS))
def test_preset_config_document_matches_golden_digest(preset):
    text = render_config(resolve_config(preset_config(preset)))
    assert hashlib.sha256(text.encode()).hexdigest() == MANIFEST_DIGESTS[preset]
