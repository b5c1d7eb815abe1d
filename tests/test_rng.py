"""Deterministic random stream: known-answer vectors and sampler laws.

The known-answer vectors below were computed from an independently written
implementation of the same generator and cross-checked against published
output (first word for seed 0 is 0xE220A8397B1DCDAF). They pin the stream
for good: any change to the generator or the samplers that shifts these
values breaks replay of every recorded experiment.
"""

from __future__ import annotations

from collections import Counter

import pytest

from xosmax.rng import SplitMix64, sample_mask, sample_positions

KAT = {
    0x0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
          0xF88BB8A8724C81EC, 0x1B39896A51A8749B),
    0x1: (0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E,
          0x71C18690EE42C90B, 0x71BB54D8D101B5B9),
    0x2A: (0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52,
           0x581CE1FF0E4AE394, 0x09BC585A244823F2),
    0xDEADBEEF: (0x4ADFB90F68C9EB9B, 0xDE586A3141A10922, 0x021FBC2F8E1CFC1D,
                 0x7466CE737BE16790, 0x3BFA8764F685BD1C),
    0xFFFFFFFFFFFFFFFF: (0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9,
                         0x6D1DB36CCBA982D2, 0xB4A0472E578069AE),
}


def test_known_answer_vectors():
    for seed, expected in KAT.items():
        g = SplitMix64(seed)
        assert tuple(g.next_u64() for _ in range(5)) == expected


def test_randrange_frozen_sequence():
    g = SplitMix64(7)
    assert [g.randrange(6) for _ in range(8)] == [3, 0, 0, 3, 4, 3, 4, 0]


def test_sampler_frozen_outputs():
    assert sample_positions(10, 4, SplitMix64(2024)) == [1, 9, 0, 8]
    assert sample_mask(10, 4, SplitMix64(2024)) == 0b1100000011


def test_randrange_bounds_and_errors():
    g = SplitMix64(1)
    for bound in (1, 2, 3, 17, 1 << 40):
        for _ in range(50):
            assert 0 <= g.randrange(bound) < bound
    with pytest.raises(ValueError):
        g.randrange(0)
    with pytest.raises(ValueError):
        g.randrange(-3)


def test_randint_inclusive_range():
    g = SplitMix64(5)
    seen = {g.randint(-2, 2) for _ in range(200)}
    assert seen == {-2, -1, 0, 1, 2}


def test_sample_positions_shape():
    g = SplitMix64(9)
    for m in range(0, 7):
        got = sample_positions(6, m, g)
        assert len(got) == m
        assert len(set(got)) == m
        assert all(0 <= p < 6 for p in got)
    with pytest.raises(ValueError):
        sample_positions(4, 5, g)
    with pytest.raises(ValueError):
        sample_positions(4, -1, g)


def test_sample_mask_cardinality():
    g = SplitMix64(11)
    for m in range(0, 9):
        mask = sample_mask(8, m, g)
        assert mask.bit_count() == m
        assert mask < (1 << 8)


def test_pair_sampler_uniformity():
    # 10 possible pairs from 5 elements; each should appear with frequency
    # 0.1 +- 0.01 over 1e5 draws (a >10 sigma corridor, so this is a logic
    # check rather than a flaky statistical one)
    g = SplitMix64(123)
    draws = 100_000
    counts = Counter(sample_mask(5, 2, g) for _ in range(draws))
    assert len(counts) == 10
    for mask, cnt in counts.items():
        assert abs(cnt / draws - 0.1) < 0.01, (bin(mask), cnt)


def test_seed_validation():
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(1 << 64)
    SplitMix64((1 << 64) - 1)


@pytest.mark.parametrize("seed", [True, False, 1.5, 1.0, "1", None])
def test_seed_must_be_a_plain_int(seed):
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        SplitMix64(seed)
