"""The generators' outputs, pinned bit for bit.

The benchmark's workload inputs and many fixtures come from these seeded
generators, so a one-bit change in any of them changes what every comparison
runs on.  Both the ``gen`` stdout of every kind and the arrays of the calls
that build the benchmark inputs are pinned by sha256.
"""
import hashlib

import numpy as np
import pytest

from logcvx import (SplitMix64, convex_random_grid, log_convex_random_1d, notconvex_grid,
                    random_grid)
from logcvx.cli import main

# sha256 of the stdout of ``logcvx gen`` with these arguments
GEN_SHA256 = {
    ("notconvex",): "465193a014b14ce149f94a472ef18b4fd4df1a11f4aa4d62d18a9eab4095f4c8",
    ("notconvex", "--box", "2,3"):
        "11006256c2e367b3a3502042dcbc6c3ca2d39647528268479e1b897b63538077",
    ("notconvex", "--box", "3,5", "--scale", "log"):
        "776a3b0590a70c4d745b7b7afbfcd2cd1e3669d04e3bef12519338adbb281dae",
    ("factorial",): "3c79457a71b520ec405cbe243adaf9fc57e95d61508cd3989c8639b103221fc3",
    ("factorial", "--n", "170"):
        "369768a5ff3fb2d1155dcefe60d265c6b23efcd3a5d8d0f4456bfe262025c6e4",
    ("factorial", "--n", "30", "--scale", "log"):
        "42eafe2124f69a1bdbb098dd0d8004f934dc2f7f540c33faf75f94b8c4e0cb3f",
    ("random", "--box", "4,4"):
        "ca3c9682c9d436a8adb80e21dcc1c30c96d6fa198a2994525e498bd8830aec98",
    ("random", "--box", "5,3", "--seed", "7", "--amplitude", "2.5"):
        "a91af3ad3d05fdee29068c897de4e465c655fc41576d18a7db454aa6d9ef818d",
    ("random", "--box", "5,3", "--seed", "7", "--scale", "log"):
        "1fed15ec8e6cfc2e1561004db53c62e1bfc37405993cc27a4c6f243250d36520",
    ("random", "--box", "3,3,3", "--seed", "3", "--scale", "log", "--lift", "0.5"):
        "2fedf01da9a4712ebc96dd6d8b04bef386bcedcd0e541e2f31471a9bc09bcf5b",
    ("random", "--box", "3,2", "--seed", "4", "--format", "csv"):
        "c02420de25c0ff0def018fb36e107d4762146e7e1bccc5f64bdc6406b7848acc",
    ("convex", "--seed", "1"):
        "15008d78495b1b35df46f84ebaf5573aa2079951aad620c946799d3106bc7cb1",
    ("convex", "--seed", "1", "--scale", "log"):
        "15008d78495b1b35df46f84ebaf5573aa2079951aad620c946799d3106bc7cb1",
    ("convex", "--box", "3,3,3", "--seed", "9"):
        "554c3059beaf1d10f5ce2f5c7100272590ea718bf8b9176373c235b7c94a1190",
    ("log-convex-1d",): "9675f13d201fcab59784d5dd03e04739f64ce591c4125afebe24aa7222900012",
    ("log-convex-1d", "--scale", "exp"):
        "9675f13d201fcab59784d5dd03e04739f64ce591c4125afebe24aa7222900012",
    ("log-convex-1d", "--n", "30", "--seed", "5"):
        "4b13eb8685ffea9e5aca8be122f83bebd86f921760fb1aee0f7c9b49cb19419f",
    ("l37r-counterexample", "--box", "6,6"):
        "105041f5b2808458e5792ce6fae59556b20a6bd8670e52b6a5d86129d26943ec",
    ("l37r-counterexample", "--box", "6,6", "--scale", "exp"):
        "105041f5b2808458e5792ce6fae59556b20a6bd8670e52b6a5d86129d26943ec",
    ("l37r-counterexample", "--box", "12,12"):
        "f06234e1fb8f965b16432657cd5a93fc9de53acdbeccdc52be888f19de8a60f0",
}


@pytest.mark.parametrize("argv", sorted(GEN_SHA256), ids=" ".join)
def test_gen_stdout_is_pinned(argv, capsys):
    assert main(["gen", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_SHA256[argv]


SEEDS = (1, 1234567, 2**31 - 2)
# sha256 of the flat float64 values, called the way the benchmark inputs are
# built: random_grid(box, seed, scale=LOG), convex_random_grid(box, seed) and
# notconvex_grid(box, scale=LOG); one digest per seed of SEEDS
RANDOM_SHA256 = {
    (10, 10): ("407e828ae319b3bda7d242ee02affe5ba412a451bbf6f6aed83ccd53b61b63e0",
               "47af238beb4d8e34e0b160c01d528bb352e5ad273eca471940abbcabc30aa251",
               "152ef082ec7808489f103d370767b992f99e213680e8b627e6800edfd80f02cf"),
    (4, 4, 4): ("c4efbf8b578732799ff719823db34e3f1ebf5e61f56feb3925cdcfe18d5b0d4f",
                "995c28152e718f40e3f994105bbcb305ee3d7cffa0987962774dca695299b832",
                "a01fd510f7d438df8f49b5aa5c38a4731fac7c37c0dd26febc4df163831eef94"),
    (6, 6): ("7dc4768dd4f37f3b72f1bcf1beecf52945b6d7159ccf0fbbd5fed3f6ac73535a",
             "b529280eb2132c49fae09d288b6c76a48b8a7aeb297308e9ed53e9ab5eca0345",
             "2e9becd669c121dcb7756853eefc6e6b7af417d1b6336ba86117129692f76f2e"),
    (12, 12): ("921d6c64a95f1b92376be8afa742eb46097db9cbdda6b514efe32a2aa3700dad",
               "7ad8804b352f0199986012633a5bc6a90e87a15fb1dc7f488c642f99c90228d1",
               "908bcf812cce3652792a996e60d84e45f544eff78c23c46022c3f4c2ef4061f7"),
}
CONVEX_SHA256 = {
    (10, 10): ("1dde3206f68433c4a6494724bce23bd010db34821bd651fb6b0bbfaefd170561",
               "3b7b30193b8ad608f0e04d3c7876ec763aa91fbcd95c822d69e5d1e301144d1d",
               "cef110ac8f39011adfe4db36fda1a977f2bb86093c2ebecd68d9dc0642389df1"),
    (4, 4, 4): ("976aff067659ed7d56e46c3257225534b1444bf01d22849bde06802c3b2fefe4",
                "2e10f9e6306ddc157ea2a5120735ed581005473e6aa5e9070e7cb598a7119f7f",
                "d8740e4ccae244327a414e6bbaa1883a62087a10031127ec23c609f985fe76e1"),
    (6, 6): ("69c5786e129736d6c6726502516bcc0532364af3a10f995f02018e7a66500a41",
             "8a15e3135709a6dcd673547d02c028d44e26ed27482d9a4bfade37d4e103fbf8",
             "a61c168f7b446d563ecb79d3fda4822f9cc94e8265901cb8a527c9399fd07acf"),
    (12, 12): ("3c36ddb3a0c35309ec4b985bd2ff3b6df3c50feb6bd52d4e9243f97f96dbc54a",
               "3a39c299d5ff3df326f5bc03f38f79d590726741ee2174292a59e4a54d039d09",
               "0efc85c7bb5841f0a2f068cdcc009fa2dca2d1fdc27d09a2fd8a1788c22711f3"),
}
NOTCONVEX_SHA256 = {
    (10, 10): "bfd7b6a0ef13f8278f4b1915ff59804df9942a7089e9205954acbe715f45acc6",
    (6, 6): "1437051c29fd9fdd805963d0878faca2221813e3601b03e90fca363670ec22f9",
    (12, 12): "f90fbd596a8fa357c88c4675276516f229039ea2492588a89ed80077fc669559",
}


def _digest(g, box):
    assert (g.box, g.scale) == (box, "log")
    return hashlib.sha256(g.flat.tobytes()).hexdigest()


@pytest.mark.parametrize("box", sorted(RANDOM_SHA256))
def test_random_grid_arrays_are_pinned(box):
    assert tuple(_digest(random_grid(box, s, scale="log"), box) for s in SEEDS) \
        == RANDOM_SHA256[box]


@pytest.mark.parametrize("box", sorted(CONVEX_SHA256))
def test_convex_random_grid_arrays_are_pinned(box):
    assert tuple(_digest(convex_random_grid(box, s), box) for s in SEEDS) == CONVEX_SHA256[box]


@pytest.mark.parametrize("box", sorted(NOTCONVEX_SHA256))
def test_notconvex_grid_arrays_are_pinned(box):
    assert _digest(notconvex_grid(box, scale="log"), box) == NOTCONVEX_SHA256[box]


def _cumsum_log_convex_1d(n, seed):
    """The log values of log_convex_random_1d as two np.cumsum passes over all n draws."""
    steps = np.cumsum(0.5 * SplitMix64(seed).floats(n))
    return np.concatenate(([0.0], np.cumsum(steps)))


@pytest.mark.parametrize("seed", [0, 5, 1234567, 2**31 - 2])
def test_log_convex_random_1d_keeps_the_cumsum_bytes(seed):
    fits = 0
    for n in range(0, 160, 3):
        a = _cumsum_log_convex_1d(n, seed)
        if a[-1] > 709.0:
            with pytest.raises(OverflowError):
                log_convex_random_1d(n, seed)
            continue
        fits += 1
        g = log_convex_random_1d(n, seed)
        assert g.flat.tobytes() == np.exp(a).tobytes()
    assert 10 < fits < 50


def test_log_convex_random_1d_stops_drawing_past_the_exp_limit(monkeypatch):
    draws = []
    random = SplitMix64.random
    monkeypatch.setattr(SplitMix64, "random", lambda self: draws.append(1) or random(self))
    # at seed 0 the log values pass 709 at the 74th draw
    with pytest.raises(OverflowError):
        log_convex_random_1d(100_000, 0)
    assert len(draws) == 74
