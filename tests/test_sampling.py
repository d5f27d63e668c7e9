"""The samplers: block draws against point draws."""

import random

import pytest

from ggv import ModelConfig, make_model
from ggv.sampling import sample_block, sample_point

SAMPLED_CONFIGS = [ModelConfig(kind, dim=dim, s=2.5 if kind == "einstein" else 1.0)
                   for kind in ("normed", "einstein", "mobius") for dim in range(1, 6)] + [ModelConfig("pathological")]


@pytest.mark.parametrize("cfg", SAMPLED_CONFIGS, ids=lambda cfg: cfg.tag)
@pytest.mark.parametrize("cached_gauss", [False, True])
def test_a_block_is_a_loop_of_point_draws_bit_for_bit(cfg, cached_gauss):
    m = make_model(cfg)
    for margin in (0.95, 0.8, 0.6):
        for n in (1, 2, 3, 7):
            by_point, by_block = random.Random(f"{cfg.tag}:{margin}:{n}"), random.Random(f"{cfg.tag}:{margin}:{n}")
            if cached_gauss:  # an odd number of Gaussians leaves the next one cached
                by_point.gauss(0.0, 1.0)
                by_block.gauss(0.0, 1.0)
            points = [sample_point(m, by_point, margin).coords for _ in range(n)]
            block = sample_block(m, by_block, n, margin)
            assert [[x.hex() for x in column.tolist()] for column in block] == [
                [p[j].hex() for p in points] for j in range(cfg.dim)]
            assert by_block.getstate() == by_point.getstate()


class _ZeroGaussians(random.Random):
    # A stream whose Gaussians are all zero: every ball direction is zero.
    def gauss(self, mu=0.0, sigma=1.0):
        super().gauss(mu, sigma)
        return 0.0


def test_a_zero_direction_becomes_the_first_axis_in_both_samplers():
    m = make_model(ModelConfig("mobius", dim=3))
    point = sample_point(m, _ZeroGaussians(5), 0.9).coords
    block = sample_block(m, _ZeroGaussians(5), 2, 0.9)
    assert point[0] > 0.0 and point[1:] == (0.0, 0.0)
    assert tuple(column[0] for column in block) == point
