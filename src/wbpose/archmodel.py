"""Architecture descriptor and cost model (no network execution).

Describes the stage layout of the multi-stage predictor as channel
arithmetic: a stride-8 backbone feeding a chain of PAF refinement stages
(each re-concatenating the backbone features with the previous PAF output)
and a confidence-map stage fed with backbone features plus the final PAF
output. Config strings follow the "<stages>s, <blocks>b, <w0[-w1]>w"
grammar; a width range interpolates linearly across stages.

The module computes receptive fields, parameter counts, and multiply-
accumulate estimates, and carries a small runtime model comparing the
single-network design against a body-plus-per-person-crops baseline, in
units of one whole-body pass. Costs are arithmetic, never measured; the
bench module supplies real timings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .skeleton import SkeletonTopology


_SPEC_RE = re.compile(
    r"^\s*(\d+)\s*s\s*,\s*(\d+)\s*b\s*,\s*(\d+)(?:\s*-\s*(\d+))?\s*w\s*$"
)


@dataclass(frozen=True)
class ArchSpec:
    """Parsed stage configuration: per-stage widths, one conv block unit
    being a single 3x3 conv."""

    n_stages: int
    n_blocks: int
    widths: tuple[int, ...]  # one per stage


def parse_config(text: str) -> ArchSpec:
    """Parse "3s, 8b, 96-256w" style strings.

    "96-256w" spreads widths linearly from 96 (first stage) to 256 (last),
    rounded to integers; a single stage takes the low end.
    """
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse config string {text!r}")
    n_stages, n_blocks = int(m.group(1)), int(m.group(2))
    if n_stages < 1 or n_blocks < 1:
        raise ValueError(f"{text!r}: stages and blocks must be >= 1")
    w_lo = int(m.group(3))
    w_hi = int(m.group(4)) if m.group(4) is not None else w_lo
    if w_lo < 1 or w_hi < 1:
        raise ValueError(f"{text!r}: widths must be >= 1")
    widths = tuple(int(round(w)) for w in np.linspace(w_lo, w_hi, n_stages))
    return ArchSpec(n_stages=n_stages, n_blocks=n_blocks, widths=widths)


@dataclass(frozen=True)
class Layer:
    kind: str  # "conv" | "pool"
    kernel: int
    stride: int
    in_channels: int
    out_channels: int

    def __post_init__(self) -> None:
        if self.kind not in ("conv", "pool"):
            raise ValueError(f"unknown layer kind {self.kind!r}")


def conv(kernel: int, in_ch: int, out_ch: int) -> Layer:
    return Layer("conv", kernel, 1, in_ch, out_ch)


def pool(kernel: int = 2, stride: int = 2) -> Layer:
    return Layer("pool", kernel, stride, 0, 0)


# A VGG-19-shaped front end: the first ten 3x3 convs and three 2x2 pools,
# leaving 512 feature channels at stride 8. Shapes only; there are no
# weights anywhere in this package.
DEFAULT_BACKBONE: tuple[Layer, ...] = (
    conv(3, 3, 64), conv(3, 64, 64), pool(),
    conv(3, 64, 128), conv(3, 128, 128), pool(),
    conv(3, 128, 256), conv(3, 256, 256), conv(3, 256, 256), conv(3, 256, 256), pool(),
    conv(3, 256, 512), conv(3, 512, 512),
)


@dataclass(frozen=True)
class StageConfig:
    blocks: int
    widths: tuple[int, ...]  # one per block
    kernel: int
    input_channels: int
    output_channels: int

    def __post_init__(self) -> None:
        if len(self.widths) != self.blocks:
            raise ValueError("need one width per block")

    def layers(self) -> tuple[Layer, ...]:
        out = []
        prev = self.input_channels
        for w in self.widths:
            out.append(conv(self.kernel, prev, w))
            prev = w
        out.append(conv(1, prev, self.output_channels))  # linear head
        return tuple(out)


@dataclass(frozen=True)
class StageGraph:
    backbone: tuple[Layer, ...]
    backbone_channels: int
    paf_stages: tuple[StageConfig, ...]
    cm_stages: tuple[StageConfig, ...]
    paf_output_channels: int
    cm_output_channels: int
    input_resolution: int = 480

    def named_segments(self) -> list[tuple[str, tuple[Layer, ...]]]:
        segments = [("backbone", self.backbone)]
        for i, stage in enumerate(self.paf_stages, start=1):
            segments.append((f"paf_stage_{i}", stage.layers()))
        for i, stage in enumerate(self.cm_stages, start=1):
            segments.append((f"cm_stage_{i}", stage.layers()))
        return segments

    def all_layers(self) -> tuple[Layer, ...]:
        return tuple(l for _, seg in self.named_segments() for l in seg)


def build_stage_graph(
    paf: str | ArchSpec,
    cm: str | ArchSpec,
    topo: SkeletonTopology,
    input_resolution: int = 480,
    kernel: int = 3,
) -> StageGraph:
    """Assemble the full graph for a topology.

    Channel arithmetic, by construction: the first PAF stage reads the
    backbone features; every later PAF stage reads backbone plus the
    previous PAF output; every CM stage reads backbone plus the final PAF
    output. PAF stages emit 2 channels per limb, CM stages one per part
    plus background.
    """
    if input_resolution < 1:
        raise ValueError(f"input_resolution must be >= 1 px, got {input_resolution}")
    paf_spec = parse_config(paf) if isinstance(paf, str) else paf
    cm_spec = parse_config(cm) if isinstance(cm, str) else cm
    backbone = DEFAULT_BACKBONE
    backbone_channels = next(
        (l.out_channels for l in reversed(backbone) if l.kind == "conv"), 0
    )
    paf_out = topo.paf_channels
    cm_out = topo.confidence_channels

    paf_stages = []
    for t in range(paf_spec.n_stages):
        in_ch = backbone_channels if t == 0 else backbone_channels + paf_out
        paf_stages.append(
            StageConfig(
                blocks=paf_spec.n_blocks,
                widths=(paf_spec.widths[t],) * paf_spec.n_blocks,
                kernel=kernel,
                input_channels=in_ch,
                output_channels=paf_out,
            )
        )
    cm_stages = []
    for t in range(cm_spec.n_stages):
        cm_stages.append(
            StageConfig(
                blocks=cm_spec.n_blocks,
                widths=(cm_spec.widths[t],) * cm_spec.n_blocks,
                kernel=kernel,
                input_channels=backbone_channels + paf_out,
                output_channels=cm_out,
            )
        )
    return StageGraph(
        backbone=backbone,
        backbone_channels=backbone_channels,
        paf_stages=tuple(paf_stages),
        cm_stages=tuple(cm_stages),
        paf_output_channels=paf_out,
        cm_output_channels=cm_out,
        input_resolution=input_resolution,
    )


def receptive_field_of_layers(layers: Iterable[tuple[int, int]]) -> int:
    """Receptive field of a chain given (kernel, stride) pairs:
    r += (k - 1) * jump, jump *= stride."""
    rf, jump = 1, 1
    for kernel, stride in layers:
        rf += (kernel - 1) * jump
        jump *= stride
    return rf


def receptive_field(graph: StageGraph) -> int:
    """Input-pixel extent feeding one output activation, through backbone,
    all PAF stages, and the CM stage chain."""
    return receptive_field_of_layers(
        (l.kernel, l.stride) for l in graph.all_layers()
    )


def conv_macs(kernel: int, in_ch: int, out_ch: int, h: int, w: int) -> int:
    return kernel * kernel * in_ch * out_ch * h * w


@dataclass(frozen=True)
class SegmentCost:
    params: int
    macs: int


@dataclass(frozen=True)
class CostEstimate:
    params: int
    macs: int
    per_segment: dict[str, SegmentCost] = field(default_factory=dict)


def cost_estimate(graph: StageGraph) -> CostEstimate:
    """Parameters and multiply-accumulates at the graph's input resolution.

    Convs (all stride 1) cost k^2 * c_in * c_out per output pixel (plus bias
    parameters); pools are free but halve the operating resolution.
    """
    h = w = graph.input_resolution
    per_segment: dict[str, SegmentCost] = {}
    total_params = 0
    total_macs = 0
    for name, layers in graph.named_segments():
        seg_params = 0
        seg_macs = 0
        for layer in layers:
            if layer.kind == "pool":
                h = -(-h // layer.stride)
                w = -(-w // layer.stride)
                continue
            seg_params += layer.kernel**2 * layer.in_channels * layer.out_channels
            seg_params += layer.out_channels
            seg_macs += conv_macs(layer.kernel, layer.in_channels, layer.out_channels, h, w)
        per_segment[name] = SegmentCost(seg_params, seg_macs)
        total_params += seg_params
        total_macs += seg_macs
    return CostEstimate(params=total_params, macs=total_macs, per_segment=per_segment)


# The runtime model: single-network cost vs a body-pass-plus-crops baseline,
# in units of one whole-body pass, which is independent of the person count.
# The baseline pays T_BODY once plus, for the VISIBILITY fraction of people,
# one face and one hand crop pass each, so it is 7x slower at 10 people.
T_BODY = 1.0
T_FACE = 0.5
T_HAND = 0.5
VISIBILITY = 0.6


def runtime_ratio(n_people: float) -> float:
    """Baseline-over-single cost ratio at a crowd size; affine in n."""
    return T_BODY + n_people * VISIBILITY * (T_FACE + T_HAND)
