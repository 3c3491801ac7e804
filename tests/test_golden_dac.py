"""Golden output hashes of the converter yield flows.

Each case runs ``subsetcal dac yield`` in-process at 100 samples, seed 1, and
compares the SHA-256 of every CSV and ``.meta.json`` it writes with the hashes
recorded below.  A change to how converters are drawn, calibrated or read out
that moves any output byte fails here.  The manifest is left out: it records
the output directory, which differs per run.

The hashes were recorded from the per-cell object model that preceded the
array-form ``DacSample``, so they pin the array code to its bytes.
"""

import os

import pytest

from subsetcal.cli import main
from subsetcal.reporting import sha256_of

DUMP_CFG = """\
figure.id = fig5.14
dac.flow = eses
dac.samples = 100
dac.seed = 1
dac.dump_sample = 7
dac.histogram_columns = none
"""

CASES = {
    "eses": ["--flow", "eses"],
    "ses": ["--flow", "ses"],
    "timing": ["--flow", "timing"],
    "dump": [],
}

GOLDEN = {
    "dump": {
        "fig5.14.csv":
            "5e7b8e5d30a25ca3c663e649f53579f262c4591d3e44bf5fb7d3d98a1660384c",
        "fig5.14.meta.json":
            "1baf9d01d50e118a8a801dc59e52397cba1c157173f45cb5b0f2a3ee05d1eb94",
        "yield_rows.csv":
            "747dfb369dac2eb99cac8f31ed7758b0eaf4419fce0f38190d73b26323aef251",
        "yield_rows.meta.json":
            "212b3a35722fe4bc3aa97fb6a4ee3be301172dbbbde6f4aa86e7bb14ebf4d804",
    },
    "eses": {
        "hist_post_dnl_max.csv":
            "230d5d33087333abc6ae3a4642a5dd1c069175215b442febca268ea170a88456",
        "hist_post_dnl_max.meta.json":
            "05a5403cea58a3df36d7906f8fa9122c1849f432288569cfed881b9c082aa483",
        "hist_post_inl_max.csv":
            "188f468003bba6b169b3d65085ba49ef2573ba00221b9f099a59617103844717",
        "hist_post_inl_max.meta.json":
            "69cdf874acc30dd59a77987170e6019c0924eb8df3649730e667a1506a5603f2",
        "hist_pre_dnl_max.csv":
            "dec616a7183cacc0e66f76bd00f9b5ddd5710fe8c2f39b774541fcc71b1afd53",
        "hist_pre_dnl_max.meta.json":
            "c2de6e416b3172f82e2842a2c5a172b71d16634f4c3415c9a5231e041d1f88e5",
        "hist_pre_inl_max.csv":
            "027ea36fe0fac5acb6245e1f23bf13f4f95f2bf18f7dd41dda5c20e2044c810a",
        "hist_pre_inl_max.meta.json":
            "b44ecd8705b51643050513df21b64cc5460813d916bd6fb4d13c508213b32a8a",
        "yield_rows.csv":
            "747dfb369dac2eb99cac8f31ed7758b0eaf4419fce0f38190d73b26323aef251",
        "yield_rows.meta.json":
            "212b3a35722fe4bc3aa97fb6a4ee3be301172dbbbde6f4aa86e7bb14ebf4d804",
    },
    "ses": {
        "hist_post_dnl_max.csv":
            "4830c017286036a92dd06a59875ca76e3a382434dc2ad0b0c101128e4150ca42",
        "hist_post_dnl_max.meta.json":
            "3a69744965b9829d6b5379569fb53f57646d9e11d611ebaaba7561c0812f8f9d",
        "hist_post_inl_max.csv":
            "6714ae87320d6aad8c6b93071a7fcfe09a958b00c8500699da10b95c11f9c8bc",
        "hist_post_inl_max.meta.json":
            "e11560424bb568d84e9efdddfda52f75010e1a81460d7f4eee693c981d88d6de",
        "hist_pre_dnl_max.csv":
            "7f2ed03a4e6b4066afc22e0a747a8f62ff1e5b19ee9bbfbd4f9e744deabbe31e",
        "hist_pre_dnl_max.meta.json":
            "1324e18e770994ab07b618a8f378108ccc0f80e029d5c4f2f721647829b7b2c9",
        "hist_pre_inl_max.csv":
            "da57c4330d9326083d932f0bf2f339a2b270b5ead13d5e71dcb301baa6deee54",
        "hist_pre_inl_max.meta.json":
            "2ccf46c905f10a61da075dcc49e716aee095d123bd6699646f2f80f34ea509e0",
        "yield_rows.csv":
            "82d255fad239b227f67d2cddab2be6b9047c247a87116e65aef36d43b9292aa3",
        "yield_rows.meta.json":
            "1c53074dda35e69be8a401f82c5b9f530bb0c094823618f59b08a36dde56c4b5",
    },
    "timing": {
        "hist_post_delay_sigma.csv":
            "82463f3bdf8ff19d567305eee2a6a75e1615b055f6cbabbb3561ac288a05344d",
        "hist_post_delay_sigma.meta.json":
            "315f855a2f9ce472808e50b78de922d063595612566e9cd11c02f45ef2836cb6",
        "hist_post_duty_sigma.csv":
            "2b50b9bcd1705292c9772ed11155779087a273f449a567cbec4f931cb5c08631",
        "hist_post_duty_sigma.meta.json":
            "82d98bb6de7986d308c73766c07430c176ad16769da6ce27fbf72f1dd58c244e",
        "hist_pre_delay_sigma.csv":
            "60bd608b1ff25673c9c2dc594f5919a12da7ec89c146f8db83d39d30bf4798f0",
        "hist_pre_delay_sigma.meta.json":
            "202dee45d0a0123bd4d58c288630463fdc3ce4d0cc7567fcfba5cc6e93c54074",
        "hist_pre_duty_sigma.csv":
            "e0f7328ca7d5a418a5cd8fe8ca9f2603bf2947056e680c920526e26cac79e187",
        "hist_pre_duty_sigma.meta.json":
            "62630a0f6ea45bc3315eaa026e855cf71f195ed9b782341479b1c978d9c322ed",
        "yield_rows.csv":
            "c9b2cae0a1246f314205b97d41818636f2c95735271021764e8ce3ef673f6d21",
        "yield_rows.meta.json":
            "c67e1ae168f6e2eae2e8b1d27051535fcca17d6aa2952b56a8a1bcc754afebf6",
    },
}


def run_case(tmp_path, case):
    out = tmp_path / case
    argv = ["dac", "yield", "--samples", "100", "--seed", "1", "--quiet", "--out", str(out)]
    if case == "dump":
        cfg = tmp_path / "dump.cfg"
        cfg.write_text(DUMP_CFG, encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv + CASES[case]) == 0
    return {
        name: sha256_of(os.path.join(out, name))
        for name in sorted(os.listdir(out))
        if name.endswith((".csv", ".meta.json"))
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_dac_yield_outputs_match_golden_hashes(tmp_path, case):
    assert run_case(tmp_path, case) == GOLDEN[case]
