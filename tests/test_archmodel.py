"""Config grammar, channel arithmetic, receptive field, cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_receptive_field
from wbpose.archmodel import (
    DEFAULT_BACKBONE,
    ArchSpec,
    StageConfig,
    build_stage_graph,
    conv_macs,
    cost_estimate,
    parse_config,
    receptive_field,
    receptive_field_of_layers,
    runtime_ratio,
)

# The self-comparison grid: PAF config paired with its CM config.
REFERENCE_CONFIGS = [
    ("1s, 10b, 256w", "1s, 10b, 256w"),
    ("2s, 8b, 128-288w", "1s, 8b, 256w"),
    ("2s, 10b, 128-256w", "1s, 10b, 256w"),
    ("3s, 8b, 96-256w", "1s, 8b, 192w"),
    ("4s, 8b, 96-256w", "1s, 8b, 224w"),
    ("5s, 8b, 64-256w", "1s, 5b, 256w"),
]


def test_parse_uniform_width():
    spec = parse_config("1s, 10b, 256w")
    assert spec == ArchSpec(n_stages=1, n_blocks=10, widths=(256,))


def test_parse_width_ramp_interpolates_linearly():
    assert parse_config("3s, 8b, 96-256w").widths == (96, 176, 256)
    assert parse_config("2s, 8b, 128-288w").widths == (128, 288)
    assert parse_config("5s, 8b, 64-256w").widths == (64, 112, 160, 208, 256)


def test_parse_rejects_zero_stages_and_garbage():
    with pytest.raises(ValueError, match="^'0s, 1b, 64w': stages and blocks must be >= 1$"):
        parse_config("0s, 1b, 64w")
    with pytest.raises(ValueError, match="^cannot parse config string '3 stages'$"):
        parse_config("3 stages")
    with pytest.raises(ValueError, match="^'3s, 0b, 64w': stages and blocks must be >= 1$"):
        parse_config("3s, 0b, 64w")


def test_all_reference_configs_parse_and_satisfy_channel_rules(topo):
    for paf_text, cm_text in REFERENCE_CONFIGS:
        graph = build_stage_graph(paf_text, cm_text, topo)
        assert graph.backbone_channels == 512
        assert graph.paf_output_channels == 2 * topo.n_limbs
        assert graph.cm_output_channels == topo.confidence_channels
        for t, stage in enumerate(graph.paf_stages):
            expected = 512 if t == 0 else 512 + graph.paf_output_channels
            assert stage.input_channels == expected
            assert stage.output_channels == graph.paf_output_channels
        for stage in graph.cm_stages:
            assert stage.input_channels == 512 + graph.paf_output_channels
            assert stage.output_channels == graph.cm_output_channels


def test_toy_three_layer_receptive_field_is_seven():
    layers = [(3, 1), (3, 1), (3, 1)]
    assert receptive_field_of_layers(layers) == 7
    assert oracle_receptive_field(layers) == 7


def test_backbone_receptive_field_matches_oracle():
    pairs = [(l.kernel, l.stride) for l in DEFAULT_BACKBONE]
    assert receptive_field_of_layers(pairs) == oracle_receptive_field(pairs)


def test_adding_a_block_strictly_grows_receptive_field(topo):
    small = build_stage_graph("1s, 5b, 64w", "1s, 5b, 64w", topo)
    bigger = build_stage_graph("1s, 6b, 64w", "1s, 5b, 64w", topo)
    assert receptive_field(bigger) > receptive_field(small)


@settings(max_examples=20, deadline=None)
@given(
    blocks=st.integers(1, 12),
    stages=st.integers(1, 5),
    kernel=st.integers(2, 7),
)
def test_receptive_field_monotone_in_knobs(topo, blocks, stages, kernel):
    base = build_stage_graph(
        ArchSpec(stages, blocks, (32,) * stages),
        ArchSpec(1, 2, (32,)),
        topo,
        kernel=kernel,
    )
    more_blocks = build_stage_graph(
        ArchSpec(stages, blocks + 1, (32,) * stages),
        ArchSpec(1, 2, (32,)),
        topo,
        kernel=kernel,
    )
    more_stages = build_stage_graph(
        ArchSpec(stages + 1, blocks, (32,) * (stages + 1)),
        ArchSpec(1, 2, (32,)),
        topo,
        kernel=kernel,
    )
    rf = receptive_field(base)
    assert receptive_field(more_blocks) > rf
    assert receptive_field(more_stages) > rf


def test_single_conv_mac_count_arithmetic():
    # 3x3 conv, 2 -> 4 channels, on a 10x10 map.
    assert conv_macs(3, 2, 4, 10, 10) == 7200


def test_doubling_widths_quadruples_internal_macs():
    def stage_internal_macs(width):
        stage = StageConfig(
            blocks=4, widths=(width,) * 4, kernel=3,
            input_channels=512, output_channels=52,
        )
        # Internal = width-to-width convs only (skip the first block and the
        # 1x1 head, whose costs are linear in width).
        return sum(
            conv_macs(l.kernel, l.in_channels, l.out_channels, 60, 60)
            for l in stage.layers()[1:-1]
            if l.kind == "conv" and l.in_channels == l.out_channels == width
        )

    assert stage_internal_macs(128) == 4 * stage_internal_macs(64)


def test_cost_linear_in_resolution(topo):
    g1 = build_stage_graph("2s, 4b, 64w", "1s, 4b, 64w", topo, input_resolution=240)
    g2 = build_stage_graph("2s, 4b, 64w", "1s, 4b, 64w", topo, input_resolution=480)
    c1, c2 = cost_estimate(g1), cost_estimate(g2)
    assert c2.macs == 4 * c1.macs
    assert c2.params == c1.params


def test_cost_breakdown_sums_to_total(topo):
    graph = build_stage_graph("3s, 8b, 96-256w", "1s, 8b, 192w", topo)
    est = cost_estimate(graph)
    assert est.params == sum(c.params for c in est.per_segment.values())
    assert est.macs == sum(c.macs for c in est.per_segment.values())
    assert set(est.per_segment) == {
        "backbone", "paf_stage_1", "paf_stage_2", "paf_stage_3", "cm_stage_1",
    }


def test_runtime_ratio_formula_and_affinity():
    assert runtime_ratio(10) == pytest.approx(7.0)
    assert runtime_ratio(0) == pytest.approx(1.0)
    # Affine in n: second differences vanish, slope positive.
    values = [runtime_ratio(n) for n in range(6)]
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert all(d == pytest.approx(diffs[0]) for d in diffs)
    assert diffs[0] > 0
