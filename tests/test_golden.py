"""Golden output hashes of every subcommand.

Each case runs ``subsetcal`` in-process on a small configuration and compares
the SHA-256 of every CSV, ``.json`` and ``.meta.json`` it writes with the
hashes recorded below.  A change to how any study, receiver or converter is
drawn, calibrated or read out that moves an output byte fails here.  The
manifest is checked apart: it records the output directory, which differs per
run, so its hash is taken over its JSON with ``out_dir`` removed; that pins
the resolved config, the overrides, the seed, the sample count and the
thread count every subcommand records.

The ``dac-yield-*`` hashes were recorded from the per-cell converter model
that preceded the array-form ``DacSample``; ``hr-calibrate-zero-timing`` from
the mixer that recomputed every inverter delay on each read; the rest from the
three-way mixer search that preceded the single knob search;
``dac-self-heal-rewind`` and ``dac-yield-eses-rewind`` from the converters
that drew each element set with its own call, before the one-call draw and
its set-by-set rewind.  ``hr-calibrate-k8`` and ``hr-calibrate-rewind`` were
recorded from the mixer that held each knob as an object wrapping its own
element set, drawn set by set, before the (24, n) array receiver.  The
manifest hashes were recorded from the command layer that gave each
subcommand its own handler and restated the config dataclasses' defaults.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from subsetcal import studies
from subsetcal.cli import main
from subsetcal.reporting import sha256_of

from oracles import shuffled_subset_sums

STUDY_CFG = """\
study.n = 12
study.k = 6
study.widths = 0.01, 0.05, 0.2
study.d_list = 0, 0.5
study.offset_kind = gaussian
study.offsets = 0, 2
"""

FRONTIER_CFG = """\
frontier.sigma_t_list = 1, 5
frontier.d_candidates = 0, 0.5, 2
frontier.width_grid = 0.05, 0.2, 1.0
"""

# nine sigma_T points: each block serves nine offsets at once, two blocks
# per study (a full one and a partial one)
FRONTIER_WIDE_CFG = """\
frontier.sigma_t_list = 1, 2, 3, 5, 7, 9, 11, 13, 15
frontier.d_candidates = 0, 0.5, 2, 4
frontier.width_grid = 0.05, 0.2, 0.5, 1.0, 2.0
"""

A_SWEEP_CFG = """\
sweep.a_values = 1, 0.25
sweep.widths = 0.02, 0.08
"""

HR_CFG = """\
hr.f_list = 150e6, 750e6
"""

# no clock or buffer timing spread: every inverter has drive coefficient 0
HR_ZERO_TIMING_CFG = HR_CFG + """\
hr.clock_delay_sigma = 0
hr.diff_phase_sigma = 0
"""

# k = 8 of 16: selected sums must add as one (n,) row sum does
HR_K8_CFG = HR_CFG + """\
hr.n = 16
hr.k = 8
"""

# width sigmas large enough that some widths come out <= 0 and the draw
# rewinds to the set-by-set path: 1 to 7 redraws per receiver at seeds 1-3
HR_REWIND_CFG = HR_CFG + """\
hr.element_rel_sigma = 0.5
hr.clock_delay_sigma = 0
hr.diff_phase_sigma = 0
"""

DUMP_CFG = """\
figure.id = fig5.14
dac.flow = eses
dac.samples = 100
dac.seed = 1
dac.dump_sample = 7
dac.histogram_columns = none
"""

# element sigmas large enough that some sizes come out <= 0 and the draw
# rewinds to the set-by-set path: about 3 redraws per self-heal converter
HEAL_REWIND_CFG = """\
heal.ucc_sigma = 20e-6
"""

DAC_REWIND_CFG = """\
dac.sub_sigma = 20e-6
"""

# timing buffers without drive keep their balanced selection: no clock-delay
# spread makes every delay buffer's drive 0, no duty spread every duty buffer's
DAC_ZERO_DELAY_CFG = """\
dac.delay_sigma = 0
"""

DAC_ZERO_DUTY_CFG = """\
dac.duty_sigma = 0
"""

DAC_YIELD = ["dac", "yield", "--samples", "100", "--seed", "1"]

# case -> (argv without --out/--quiet, config text or None)
CASES = {
    "study-failure-rate": (["study", "failure-rate", "--samples", "2000"], STUDY_CFG),
    "study-rcal-frontier": (["study", "rcal-frontier", "--samples", "1000"], FRONTIER_CFG),
    "study-rcal-frontier-wide": (
        ["study", "rcal-frontier", "--samples", "5000"], FRONTIER_WIDE_CFG
    ),
    "study-a-sweep": (["study", "a-sweep", "--samples", "2000"], A_SWEEP_CFG),
    "hr-simulate-1": (["hr", "simulate", "--seed", "1"], HR_CFG),
    "hr-simulate-2": (["hr", "simulate", "--seed", "2"], HR_CFG),
    "hr-calibrate-1": (["hr", "calibrate", "--seed", "1"], HR_CFG),
    "hr-calibrate-2": (["hr", "calibrate", "--seed", "2"], HR_CFG),
    "hr-calibrate-zero-timing": (["hr", "calibrate", "--seed", "1"], HR_ZERO_TIMING_CFG),
    "hr-calibrate-k8": (["hr", "calibrate", "--seed", "1"], HR_K8_CFG),
    "hr-calibrate-rewind": (["hr", "calibrate", "--seed", "2"], HR_REWIND_CFG),
    "hr-sweep-1": (["hr", "sweep", "--seed", "1"], HR_CFG),
    "hr-sweep-2": (["hr", "sweep", "--seed", "2"], HR_CFG),
    "dac-yield-eses": (DAC_YIELD + ["--flow", "eses"], None),
    "dac-yield-ses": (DAC_YIELD + ["--flow", "ses"], None),
    "dac-yield-timing": (DAC_YIELD + ["--flow", "timing"], None),
    "dac-yield-timing-zero-delay": (DAC_YIELD + ["--flow", "timing"], DAC_ZERO_DELAY_CFG),
    "dac-yield-timing-zero-duty": (DAC_YIELD + ["--flow", "timing"], DAC_ZERO_DUTY_CFG),
    "dac-yield-dump": (DAC_YIELD, DUMP_CFG),
    "dac-yield-eses-rewind": (DAC_YIELD + ["--flow", "eses"], DAC_REWIND_CFG),
    "dac-self-heal": (["dac", "self-heal", "--samples", "100", "--seed", "3"], None),
    "dac-self-heal-rewind": (
        ["dac", "self-heal", "--samples", "100", "--seed", "3"], HEAL_REWIND_CFG
    ),
    "dac-sense": (["dac", "sense"], None),
}

GOLDEN = {
    "dac-self-heal": {
        "self_heal.csv":
            "fac1b262feb78ca8a784dfde7c09fc2be7ea6c1655e859dc6f72eeb1779f13e8",
        "self_heal.meta.json":
            "b6213e4f30d0f0ba735b5e1f44428e3db53984165ee9d6cf7b06e3fd93c5f175",
        "selfheal_trace.json":
            "7ef5318cfd562d4f238dffa687c34d5cc327166b5af153c476c4f63cf94cbadf",
        "yield_rows.csv":
            "bbdbd1432ff5b696ee8d7bd427d0339671565d6d6f5cede33fa6827ddcac812e",
        "yield_rows.meta.json":
            "f0d26532a6d34c5aa0c16116432ac4c06da80e6b7e80bd6cff24bb6885e6bf8a",
    },
    "dac-self-heal-rewind": {
        "self_heal.csv":
            "2e2b2dd7e0e76ff9fa7eb493f73e1c50b94c8d2dfe177479a0d4fc56ab44820c",
        "self_heal.meta.json":
            "c1e42cf129fb1127772cdb0a3c821cd1a31acad9254951ba8db62ebb6089a27e",
        "selfheal_trace.json":
            "75d0fc597dc4c011d022ae9c9564621ee9b64003744b4941434083645c9e1e30",
        "yield_rows.csv":
            "1737ea1753cfc0e4dff67c5d5f1f005ae6c960e00c5c7f0ea62614b2181298b6",
        "yield_rows.meta.json":
            "b6f3e59e38134abb7820bc73e574c755e4befbc5ecc0bed28affa59eb9b7705e",
    },
    "dac-sense": {
        "sense_sweep.csv":
            "c068e75f77fefe92b1b65019bd8f9404030f8526a13736f87e72b89db0ba1a0b",
        "sense_sweep.meta.json":
            "28e54e1f5ac50da8f976184c235355e5127732d5deb577add11f463930ffaea3",
    },
    "dac-yield-dump": {
        "fig5.14.csv":
            "5e7b8e5d30a25ca3c663e649f53579f262c4591d3e44bf5fb7d3d98a1660384c",
        "fig5.14.meta.json":
            "1baf9d01d50e118a8a801dc59e52397cba1c157173f45cb5b0f2a3ee05d1eb94",
        "yield_rows.csv":
            "747dfb369dac2eb99cac8f31ed7758b0eaf4419fce0f38190d73b26323aef251",
        "yield_rows.meta.json":
            "212b3a35722fe4bc3aa97fb6a4ee3be301172dbbbde6f4aa86e7bb14ebf4d804",
    },
    "dac-yield-eses": {
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
    "dac-yield-eses-rewind": {
        "hist_post_dnl_max.csv":
            "412df93c25c3fea2da2f794fd92b99f165db2d3f7db5a6b311ed92efece6f4bf",
        "hist_post_dnl_max.meta.json":
            "4ac240ee557d68f7a1db062cea94911f94445f73db919a9a14ec2d6f9f4dce5e",
        "hist_post_inl_max.csv":
            "dcf84d3b79274abf293c74d7a0eb83811084057b0f42280cef1898e6c36ec623",
        "hist_post_inl_max.meta.json":
            "20a36bb85e3ecdd592db1ac943e0cce16a3437e5a33e6e37a7a3fb50acbf911e",
        "hist_pre_dnl_max.csv":
            "8f57ad9acf55d9d8b6fd03d0e4bd5b8ad866593a11ac9c0403357bd4febd8cb0",
        "hist_pre_dnl_max.meta.json":
            "cf367e63b1e0dd7f4765afd86e063020809ab9307969c027f668f608daee25a2",
        "hist_pre_inl_max.csv":
            "ea5ff6fc9bb374b5ebb20dd7216844728225411cbd38e98b1f301634d9c0dcc6",
        "hist_pre_inl_max.meta.json":
            "6a43991e463aea5daf2fa0d6b6593d574a95368d5f523a5c6c4ab9cecb27e6bd",
        "yield_rows.csv":
            "b897a47954b9597e75bcdaf07725fcca87c4da75d989d31716656962500b4cb9",
        "yield_rows.meta.json":
            "212b3a35722fe4bc3aa97fb6a4ee3be301172dbbbde6f4aa86e7bb14ebf4d804",
    },
    "dac-yield-ses": {
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
    "dac-yield-timing": {
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
    "dac-yield-timing-zero-delay": {
        "hist_post_delay_sigma.csv":
            "168a3e7526b680f7c3deb95b0d6c927a63c416d042f7b63ce75f0b61b885ed69",
        "hist_post_delay_sigma.meta.json":
            "436c6af76f48e6986b04ee2ed0eb51c57d629000bad6785ba3cffafcdd2d8aa5",
        "hist_post_duty_sigma.csv":
            "2b50b9bcd1705292c9772ed11155779087a273f449a567cbec4f931cb5c08631",
        "hist_post_duty_sigma.meta.json":
            "82d98bb6de7986d308c73766c07430c176ad16769da6ce27fbf72f1dd58c244e",
        "hist_pre_delay_sigma.csv":
            "168a3e7526b680f7c3deb95b0d6c927a63c416d042f7b63ce75f0b61b885ed69",
        "hist_pre_delay_sigma.meta.json":
            "296a6c94fcab6bdfd866464ec7ea9d2310c015b0867e00040b3764918e57ccdd",
        "hist_pre_duty_sigma.csv":
            "e0f7328ca7d5a418a5cd8fe8ca9f2603bf2947056e680c920526e26cac79e187",
        "hist_pre_duty_sigma.meta.json":
            "62630a0f6ea45bc3315eaa026e855cf71f195ed9b782341479b1c978d9c322ed",
        "yield_rows.csv":
            "7ea13e315a0a3cffd4030426045f1c54df799fa9e0b528b323162f1b4e30c5c3",
        "yield_rows.meta.json":
            "fedc23703d8660e62b4323ea632c7241c79a26338f40975ffe2feb69bcf9293e",
    },
    "dac-yield-timing-zero-duty": {
        "hist_post_delay_sigma.csv":
            "82463f3bdf8ff19d567305eee2a6a75e1615b055f6cbabbb3561ac288a05344d",
        "hist_post_delay_sigma.meta.json":
            "315f855a2f9ce472808e50b78de922d063595612566e9cd11c02f45ef2836cb6",
        "hist_post_duty_sigma.csv":
            "168a3e7526b680f7c3deb95b0d6c927a63c416d042f7b63ce75f0b61b885ed69",
        "hist_post_duty_sigma.meta.json":
            "0c5c0f0e57dc12bc007472fb1898c2d8ceae926f344ab78ac402240b053f313e",
        "hist_pre_delay_sigma.csv":
            "60bd608b1ff25673c9c2dc594f5919a12da7ec89c146f8db83d39d30bf4798f0",
        "hist_pre_delay_sigma.meta.json":
            "202dee45d0a0123bd4d58c288630463fdc3ce4d0cc7567fcfba5cc6e93c54074",
        "hist_pre_duty_sigma.csv":
            "168a3e7526b680f7c3deb95b0d6c927a63c416d042f7b63ce75f0b61b885ed69",
        "hist_pre_duty_sigma.meta.json":
            "a2af016eb749c40e5ab7f4b932420d4f3c1a3b841744853f337ac5c96d75efc8",
        "yield_rows.csv":
            "4529831ce846778259e98c5c9df03eccbab5c7b72972e9bb6ef2e257dc894813",
        "yield_rows.meta.json":
            "7d77276cd7db48a94b0a1845873e064099b5b7f57a9c9a7f98b2825e6fc8fd00",
    },
    "hr-calibrate-1": {
        "hr_calibration.csv":
            "b4e1cf11b08331bb907f90508bb69a645039159fa18f093c07cbe3ffc3123893",
        "hr_calibration.json":
            "31d5fae578825b9b87fedacb22ca5da6b980a134fe5bd14702b708b8f1633d42",
        "hr_calibration.meta.json":
            "f2cc551304c3ad55fc802511cabacaeebbaaef400ebfeb36938f71678bfade47",
    },
    "hr-calibrate-2": {
        "hr_calibration.csv":
            "5315d8ae35d93a9f3e70dc4d631079d7aeaf1512e2849383b4dea9058ae56bd5",
        "hr_calibration.json":
            "c002380a811cb9bd279dc08b1507086aae310cb0703179ec7969840a66f586ff",
        "hr_calibration.meta.json":
            "2ef14567a355bab2481385f42d03f3008bf8f22f8ad94967d6332ea834dd4d53",
    },
    "hr-calibrate-k8": {
        "hr_calibration.csv":
            "fe860e97a22831b8b3ce9cc00709ab5fc20ac8f3a0742d51bf7fd0cc79c6b7f6",
        "hr_calibration.json":
            "09d053a4fe4f5a11f6e55882cd7f894e987dbe94613b5ba7c93fb1858f2b5ac5",
        "hr_calibration.meta.json":
            "f2cc551304c3ad55fc802511cabacaeebbaaef400ebfeb36938f71678bfade47",
    },
    "hr-calibrate-rewind": {
        "hr_calibration.csv":
            "20582e1ca2766f7a1d7bca7c69c481986ec0ce4ef3153d2da17b202c0e4d1150",
        "hr_calibration.json":
            "49f289ee8b450903699042c3025d786a25e9f1a726aea1d10674fbe7480b8b35",
        "hr_calibration.meta.json":
            "2ef14567a355bab2481385f42d03f3008bf8f22f8ad94967d6332ea834dd4d53",
    },
    "hr-calibrate-zero-timing": {
        "hr_calibration.csv":
            "d7f7aae00827575d4f771b255e1b8cb5490ddb6022d2dd0266d0ecd4c10491c9",
        "hr_calibration.json":
            "36b090422e10241f89e5fec31ac50a696a0e710d3f6b22ead7d63da9339065af",
        "hr_calibration.meta.json":
            "f2cc551304c3ad55fc802511cabacaeebbaaef400ebfeb36938f71678bfade47",
    },
    "hr-simulate-1": {
        "hr_simulate.csv":
            "01fc2ae90f77ac5d083916f482d86b2316eebfce2b78fd5e4c8a7e767bc22c03",
        "hr_simulate.meta.json":
            "feab99bc760c33bf3ff0864c130181081eb3f29175390b524bd9ca8c0edf5371",
    },
    "hr-simulate-2": {
        "hr_simulate.csv":
            "72f97e56fbeac8d0f2a1a6b2fffd24073c9e388785e6ddc0298aaf7660b53c8e",
        "hr_simulate.meta.json":
            "064473c8740c5073d75c2919e8eda78185836039a8e21c57af13384833607485",
    },
    "hr-sweep-1": {
        "hr_sweep.csv":
            "6c25d56615c41143f7a3283e0cefd098dfa551a43eb27e245d4e339fba682fdb",
        "hr_sweep.meta.json":
            "4dd8c9185b0951e56f8ead0084a0a1d6c69e66a0193d6b561c4a16d2b8bf0259",
    },
    "hr-sweep-2": {
        "hr_sweep.csv":
            "a94b3da79c6884c128a9ea64c8df7f57022b844c3f5e23a2a956d55de91018e1",
        "hr_sweep.meta.json":
            "5c4f8c19bdff8ccf4a96c25ae2c8897c40f9b848262e6e237073c6be2cc2342d",
    },
    "study-rcal-frontier-wide": {
        "rcal_frontier.csv":
            "e9c221e5829c171699c22ce82ec3d717a9dba2d126256b946fb289b3ec827648",
        "rcal_frontier.meta.json":
            "caa0594f26cee25ff820efe3230950b4c2bf0b686e45fb475591793461946f18",
    },
    "study-a-sweep": {
        "a_sweep.csv":
            "57c525c98a7d1e30f73b79e50115930c6b71951031bfe86edc5b2d30b2d7f0c3",
        "a_sweep.meta.json":
            "b720577e60f5d47790cb968acf98120bdd65b639e37011890d18e8ad51ffb2d4",
    },
    "study-failure-rate": {
        "failure_rate.csv":
            "1b63dcd1f93fcf79239184d0739840cf23574662c58005393a9ea8ffd87e2c06",
        "failure_rate.meta.json":
            "9d69ab217bcefd644b01c6804ce552bb0b8c4e786a64f7e91248d071b81c424f",
    },
    "study-rcal-frontier": {
        "rcal_frontier.csv":
            "5aecaacb5e594690575a2808dc1ab6f8a7e921bffff12cc685562856237133a0",
        "rcal_frontier.meta.json":
            "70273543883b00f696280c03e566ae599c45d234d8cc0b7a5f8fd2c33771e230",
    },
}

MANIFEST_GOLDEN = {
    "dac-self-heal": "8c51e7a6d81032b9ad8f3b290459a76722e875907fc048d5a87bd3a38b231990",
    "dac-self-heal-rewind": "1bb139e05a49631999379f2ee9ed7f130881115c0af424314dc81444e232c0d3",
    "dac-sense": "b584083180a88055abe3245b3de1ff1b0f8c578cf22a1e9ad89989358a2d798f",
    "dac-yield-dump": "14506a56f1ec8dfa3f0c40e17c6299fb1da8ecb6978cae047484bf4bccbdb07b",
    "dac-yield-eses": "0eeef1e305aaf341fa60936642775dccf663d4b4f33a54d592f427750e06b504",
    "dac-yield-eses-rewind": "4abe3007d790a9af8ad582b7f1b0bd14f65ec1e3ec91dc3fa57e2901210bf914",
    "dac-yield-ses": "47d52c455d33192f632e27e7cb053ed754f6c02f4d48a59a61af53181733097e",
    "dac-yield-timing": "0ac5b5883a384f42965fedf4b1673fac1090d7735285eadcc4131c64aba53dff",
    "dac-yield-timing-zero-delay":
        "fa44cbb351b82d0460096c4363cf55de7a9eaf1bed83ebefa3474097215df8e1",
    "dac-yield-timing-zero-duty":
        "e0362c7e5c4a7bb6f2be5928ba5e806dcd6c0114dc0321bbdbed221af8753b80",
    "hr-calibrate-1": "f2c7d223d56b87e9dff080378f71901be4634d47746980acb5f293d670de464b",
    "hr-calibrate-2": "9224979f9de769ef500d01669a3ec1f6829bbb878edcfb14129f04b9c1e5cdb7",
    "hr-calibrate-k8": "6ee25c70cdfc541f24555680400111503df0b755f206c4bf8bdc700d076a4479",
    "hr-calibrate-rewind": "143a59a0639984af919fad91b2deb55af3a2d617b1b49794b2eeefdeb547fedb",
    "hr-calibrate-zero-timing":
        "3d0c24add1e31355bb138b26383c729408459301d79c66bb811a3512a5061049",
    "hr-simulate-1": "d4843005749c37004b171783f54c7693de4c0fe6d9c9a46e8c27313f374572f6",
    "hr-simulate-2": "ed7b084419d29461aaa3aa23877155fbda1cdb9c9b538e58dd27431181cfecd8",
    "hr-sweep-1": "c2fc6cac98ad1509455e57d7795b55c8ce609fd95f5470fb71ecc0596657cbec",
    "hr-sweep-2": "63e97cf29bccd7ff9b694b5cab3fcc40ffaadefd445802ef0f02af3ff33d666d",
    "study-a-sweep": "28da9e882e80cacd50f5f74b8c1ea397d46c27bb0f79f2a5d70948f2a8176752",
    "study-failure-rate": "5a804b89039f5a7102c1e28f256edc684640f15512ca168a6186f8c50cc050e4",
    "study-rcal-frontier": "2e6f07d977dba3693fcde354695d87aa750bbfd61089217c9b26370d3108a6d4",
    "study-rcal-frontier-wide":
        "b13ef812ca026fa6145c9a5af216f470de2a75199b7d5884acc0725f3b9f9f50",
}


def run_case(tmp_path, case):
    argv, cfg_text = CASES[case]
    out = tmp_path / case
    argv = argv + ["--quiet", "--out", str(out)]
    if cfg_text is not None:
        cfg = tmp_path / f"{case}.cfg"
        cfg.write_text(cfg_text, encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    hashes = {
        name: sha256_of(os.path.join(out, name))
        for name in sorted(os.listdir(out))
        if name.endswith((".csv", ".json")) and name != "manifest.json"
    }
    with open(out / "manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    del manifest["out_dir"]
    text = json.dumps(manifest, sort_keys=True)
    return hashes, hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_hashes(tmp_path, case):
    hashes, manifest = run_case(tmp_path, case)
    assert hashes == GOLDEN[case]
    assert manifest == MANIFEST_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(case for case in CASES if case.startswith("study-")))
def test_study_golden_cases_hold_on_a_hostile_product(tmp_path, monkeypatch, case):
    """Every study case with each subset sum's terms added in a random order
    of their own: the study counts are certified against a fixed order, so
    no output may move however a BLAS kernel adds."""
    shuffled = shuffled_subset_sums(np.random.default_rng(3))
    monkeypatch.setattr(studies, "_subset_sums", shuffled)
    hashes, manifest = run_case(tmp_path, case)
    assert hashes == GOLDEN[case]
    assert manifest == MANIFEST_GOLDEN[case]


def _openblas_picks_kernels_at_run_time() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(
    not _openblas_picks_kernels_at_run_time(),
    reason="OPENBLAS_CORETYPE acts only on a DYNAMIC_ARCH build of OpenBLAS",
)
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_dac_golden_cases_hold_on_other_blas_kernels(coretype):
    """Every golden case under an AVX2 and an SSE3 OpenBLAS kernel: the
    subset-sum products change bits from kernel to kernel, and no output
    may."""
    assert_golden_cases_hold_under({"OPENBLAS_CORETYPE": coretype})


@pytest.mark.skipif(
    "X86_V4" not in __cpu_features__,
    reason="this numpy does not dispatch to x86-64-v4 (AVX-512) loops",
)
def test_golden_cases_hold_on_numpy_baseline_simd():
    """Every golden case with numpy's AVX2 and AVX-512 loops switched off,
    so its ufuncs and reductions run their baseline SIMD code: no output
    may depend on which loops numpy dispatches to."""
    assert_golden_cases_hold_under({"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3"})


def assert_golden_cases_hold_under(env: dict) -> None:
    """Every golden case in a subprocess with ``env`` set (the variables act
    only on the process they are set for at its start)."""
    cases = sorted(CASES)
    tests = [f"{__file__}::test_outputs_match_golden_hashes[{case}]" for case in cases]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        env={**os.environ, **env}, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-3000:]
    assert f"{len(cases)} passed" in run.stdout
