"""Golden artifact digests: catch a silent change of output between commits.

Criterion 9 only compares two runs of the same code.  These sha256 digests of
``trajectory.csv`` and ``metrics.txt`` were recorded for three fast presets
before the propagator's per-step set-up and the CSV writer were rewritten, and
those of ``heatmap.svg`` before the SVG cell loop was rewritten; those of the
storage presets fig6a, fig6b and fig7 (a schedule switch, and for fig7 the last
member of an xi sweep) before the CSV was streamed out during propagation; and
the rest, so that every file of every preset's run is pinned (61 in all, the
dispersion scan and each manifest among them), before the experiment runners
shared one head and tail.  They must stay unchanged by any change that claims
bit-identical outputs.  The digests hold only for the numpy and scipy versions
they were recorded with; under any other version the test skips and names
both.  The same holds for the pinned matvec counts of three presets.  The
digests of the 15 resolved preset config documents were recorded before the
config schema moved onto the config dataclasses; rendering uses neither numpy
nor scipy, so they hold under any version.
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
    ("dispersion", "fig2"): {
        "metrics.txt": "cebd173b260b51c4a940e3bdff47565fd0b19a0c58001f2304e0b2218471eb23",
        "scan.csv": "d154cf7a3726b8b4f48e7b9eec15422e071f98d859eee7651c06c7812fa9da8f",
        "manifest.cfg": "034b1b462a183584291dec1ac78fc652e4d114613627e21d8a04a80cb31d8be1",
    },
    ("transport", "fig3a"): {
        "trajectory.csv": "29cee9a957ad68cf59a4805f0af54e04c6adf5cd4e72249d1517de3181eec26b",
        "metrics.txt": "d1199255281ea88a20a8f546dd15ddd2e7c4c7265499f51f32d82168ab65bf8b",
        "heatmap.svg": "c8ae32caed76986d1e29b1c05ad714affdcfe6adaea222bc82655660bb455194",
        "manifest.cfg": "57064859efca5d3bd9c7ce3528e5c57a600ead84635403981879a163e7738e76",
    },
    ("transport", "fig3b"): {
        "trajectory.csv": "7b300303a125bdad562b4dffc5c5ce879588c1d2ec4f3e385aa8980e6f90eb29",
        "metrics.txt": "721e9955afbb0920b090d8e62722e10f05269ef23142b85fa15ccda8729835dd",
        "heatmap.svg": "a9274cbafeab9682dd7a146f25f7d91d03552c2273e0f60d36be2a03a45da6cb",
        "manifest.cfg": "3edb8a9196c4b14cfdfe44b76488e2e303fe482d3ec7a78b946030379ccd9774",
    },
    ("transport", "fig3c"): {
        "trajectory.csv": "24bf605227b7757109f0d2ca7ac34b612e88255830da7a87b58f8ae395d1ab09",
        "metrics.txt": "841e9303d6d1905d56430397b8ed7c7d7ffd264ff47c59f1678d296a83ffca8b",
        "heatmap.svg": "41615bd3e4c4460b71748bf0203778a111639f150fbcfa3b913978753398c3a5",
        "manifest.cfg": "26713c80da9fb621c919ceacab87a3825e5f4f84cc126ba5ee10160f3b72e8de",
    },
    ("transport", "fig3d"): {
        "trajectory.csv": "0336d2f09ca4aed64761f58c6dedd8310e89b016b1261b40852c1b65410cbad5",
        "metrics.txt": "1d51bcd4d7c1604c34676bf81ca24d26c419d0db4ed41941ddefbc02c7f76d60",
        "heatmap.svg": "b92bf5efb72d3b85a229e1101bd38479719cf2e1ad602ef54ad2e1c1fc2bb029",
        "manifest.cfg": "d5a3d092e95fac72a1f43c97b6b017a3955acded39cead5be933ea37a4ca70d5",
    },
    ("transport", "fig3e"): {
        "trajectory.csv": "8b400c7d13cc42f9d1d0d102a0ef23d15f9659ab5ff8e08fe0335cad9538d437",
        "metrics.txt": "6c0fbfadd4edc77f9a5846d129c9a8b4601938f7a0b814d32ba0ca1de55aa4d9",
        "heatmap.svg": "d11f222a376e1e8b299f434b0e1125d5e63ef1f8a8b710fe32407316b58bbd5f",
        "manifest.cfg": "bc761112ff173f7f20f4b1aae1136d4b1e60240acfff1e0ba7b5b22f538f0661",
    },
    ("transport", "fig3f"): {
        "trajectory.csv": "8fbff2a4dcafc1d6edf88d6a7efe2027ddd0ecdde7492895a62bb4a42419e77f",
        "metrics.txt": "9429f319c46d445b27dcc56ad7149cb445c34f8ca9599b0918f8ee5318d46a78",
        "heatmap.svg": "f0d1ab46e22fdd8823e9e91c0a8293107b7c0bfa0b501080d84b58b9680e69f2",
        "manifest.cfg": "9f1db3028907c1faa7a960149f0273aeb0b2d0f69a8ef669e3ce7c97d86dcfa4",
    },
    ("transport", "fig4a"): {
        "trajectory.csv": "b4479afaff0f910050e8eab113b4afc69643735e833fe0033bf594063b469f44",
        "metrics.txt": "bc291cf898d81b66b30f0eb0f8bcdd5559240a065075c0fab7b08b557ab31b13",
        "heatmap.svg": "791e1005b50fecb9153bbb7db12e2ce849dfdfbc27b86fc46856726c6748fc6d",
        "manifest.cfg": "b837b47d3c936b3a037f7b9799a29583f41d3bf29fd5fc3592e761ecd0469e56",
    },
    ("transport", "fig4b"): {
        "trajectory.csv": "d132684e22ee2f23316c14c7342bca494b6677973279f2d619d33f0ccec6b719",
        "metrics.txt": "40113a564f1dc816daddb50f873638020f00b9341e35591cec8eb1b6012144aa",
        "heatmap.svg": "17689f5b2205a0315dcd224de92c7d33c6f081528b6adedea3e6abac5d388f2c",
        "manifest.cfg": "809aaf73236a3a089f8caefc04e5c9417d8829902ceb155eddbcf182989bf388",
    },
    ("transport", "fig4c"): {
        "trajectory.csv": "97355c2a579fa40fd56b5ae6f77e81cdcf140662bdf7e677e69eab62e46a5871",
        "metrics.txt": "821aa938c63c63d6cbf811d3a924e9805c660a9d773227a8d17de64fc2c5e037",
        "heatmap.svg": "69e3db69b4466c5e2d74f693826419b2a1a12e528f4b35d80081e35d84e8af16",
        "manifest.cfg": "ff31a67255a87172796aa7a4eac54887d100a377a78c424e61b3c4787c9f0d32",
    },
    ("transport", "fig4d"): {
        "trajectory.csv": "8c50ddece4cf3edde8258eb37d009ca41b5dae7226a45cdfa4a50ca7b657a112",
        "metrics.txt": "34f409f6b6716bc14461a3a0ae6d58b9aedb4dfdcc6af5faf1740000a0e77168",
        "heatmap.svg": "6f74c1e6ba5826081e8c8960073ab7d961107fe34b0b3f9a84558ac3c07de87a",
        "manifest.cfg": "53ffbff6d3b00d2934332805bfdd6df433abfcb3d29a4d9b7a1a86598b677ab5",
    },
    ("storage", "fig6a"): {
        "trajectory.csv": "bcc60edbc6aa67b6b7824e204446478f648cfb61feed49bd08ebfcf05e87c0ea",
        "metrics.txt": "d86b1d5ef88e1f08e8ad04080145a0d0700e5fb5c5f64b5a814e3016732964d1",
        "heatmap.svg": "28444b2b18dc6e0312ca8a668a690498b91061f4eda4279ef7bee22f904925a2",
        "manifest.cfg": "e6204d9015c260b0c584ec5cd0f5f1f92153f6d93f842a33a78dd9194e95f068",
    },
    ("storage", "fig6b"): {
        "trajectory.csv": "fd1016afd55348c04a2ca412e63751095f71ff61dac753552afdfedbd1c4840e",
        "metrics.txt": "3a34489665239901cf85d57da8cc4d3309773b2a54f29d7c20f85587aefbab3b",
        "heatmap.svg": "6c9fb225b921b744f94cf22f858d62f890ad0a652fb4070280a11e0812a25afc",
        "manifest.cfg": "7be75ffb794e145e67d669293265a1593467d66f87269945d45074ab5783a22c",
    },
    ("storage", "fig7"): {
        "trajectory.csv": "a7febdb0182f353d8e29f6c62010de7516474899019555fe818ae7c41ab5f58c",
        "metrics.txt": "1dd799ed0d2d92a96afa922ca47917aa8870cbc02c2d79637630fb65df494fa0",
        "heatmap.svg": "f65d448f67b5092754b652308d8f494b9058795c36cd6b8f4adc43f3e28cdd4f",
        "scan.csv": "8177e3fd8a2777ac007f9b57e6b942b2ca2822b9ddb9c565343e129c975d8e32",
        "manifest.cfg": "fbcb62b455dffe5a7bc652913976bb0289b3374bfd34f634b5836b760f504294",
    },
    ("reduce-check", "reduction"): {
        "trajectory.csv": "102202d7c0fc460cb91556d79c1853ea95c3e66492cd550030bb7915d0476dbb",
        "metrics.txt": "6c7f760c315edd8655b16a5cbfa4dbeba559e915cbf7ed19287eb1cea95b815b",
        "heatmap.svg": "5f549a3948efcc292260191e3bbdd5f5d136d7b22534eff9f350982ca407dc10",
        "scan.csv": "6622270593449c1ee64a06f0da2cb25846e52d114f93da0b85de4a04942aac1a",
        "manifest.cfg": "365796cc5c4d8eb3f591cfa4332f8b323b9897cd3b0bd22cf3539d07125b2c6f",
    },
}


@pytest.mark.parametrize("sub,preset", sorted(GOLDEN), ids=lambda v: v)
def test_preset_artifacts_match_golden_digests(tmp_path, sub, preset):
    if (np.__version__, scipy.__version__) != (GOLDEN_NUMPY, GOLDEN_SCIPY):
        pytest.skip(f"digests recorded with numpy {GOLDEN_NUMPY}, scipy {GOLDEN_SCIPY}; "
                    f"installed numpy {np.__version__}, scipy {scipy.__version__}")
    assert cli_main([sub, "--preset", preset, "--out", str(tmp_path), "--format", "csv+svg"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(GOLDEN[(sub, preset)])
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


def test_artifact_digests_cover_every_preset():
    assert sorted(preset for _, preset in GOLDEN) == sorted(PRESETS)


def test_manifest_digests_cover_every_preset():
    assert sorted(MANIFEST_DIGESTS) == sorted(PRESETS)


@pytest.mark.parametrize("preset", sorted(MANIFEST_DIGESTS))
def test_preset_config_document_matches_golden_digest(preset):
    text = render_config(resolve_config(preset_config(preset)))
    assert hashlib.sha256(text.encode()).hexdigest() == MANIFEST_DIGESTS[preset]
