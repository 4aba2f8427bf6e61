"""Dataset sampling and augmentation planning for mixed-source training.

A registry of dataset specs carries per-dataset pick probabilities, part
coverage, and augmentation ranges. The scheduler draws the source dataset
for each batch by inverse CDF and one augmentation tuple per image, all from
a counter-based functional RNG, so any batch of a plan can be regenerated
from (seed, batch_index) without replaying the stream.

Plans serialize to JSON lines: a header naming the seed, the RNG algorithm,
and the registry hash, then one line per batch. No pixels are touched here;
plans are instructions for a trainer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .jsondoc import DocumentError, from_json, read, read_at_least
from .skeleton import PartGroup

RNG_ALGORITHM = "numpy-philox4x64/seedseq(seed,counter)"

REGISTRY_VERSION = 1


class Special(str, Enum):
    NORMAL = "normal"
    NO_PEOPLE = "no_people"


@dataclass(frozen=True)
class AugmentationRanges:
    scale: tuple[float, float] = (1.0 / 3.0, 1.5)
    rotation_deg: float = 45.0
    flip_prob: float = 0.5
    crop: tuple[int, int] = (480, 480)

    def __post_init__(self) -> None:
        lo, hi = self.scale
        if not (0 < lo <= hi):
            raise DocumentError(f"bad scale range {self.scale}")
        if self.rotation_deg < 0:
            raise DocumentError("rotation_deg must be >= 0")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise DocumentError("flip_prob must be in [0, 1]")
        if self.crop[0] <= 0 or self.crop[1] <= 0:
            raise DocumentError("crop target must be positive")


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    size: int
    coverage: frozenset[PartGroup]
    probability: float
    aug: AugmentationRanges = field(default_factory=AugmentationRanges)
    special: Special = Special.NORMAL

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise DocumentError(f"{self.name}: probability {self.probability} outside [0, 1]")
        if self.size <= 0:
            raise DocumentError(f"{self.name}: size must be positive")


def rng_for(seed: int, counter: int) -> np.random.Generator:
    """The generator of one draw: Philox keyed by (seed, counter)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, counter))))


@dataclass(frozen=True)
class AugmentationDraw:
    scale: float
    rotation_deg: float
    flip: bool
    crop_offset: tuple[float, float]  # fractional placement in [0, 1)^2


def default_registry() -> tuple[DatasetSpec, ...]:
    """The shipped training mix.

    Pick probabilities: COCO 76.51% (76.5% plus the 0.01% left over once
    every other share is allocated), foot and MPII 5% each, three face
    sources at 0.33% each, dome hand 0.5%, MPII hand 5%, whole-body 5%,
    person-free negatives 2%. Scale defaults to [1/3, 1.5]; dome hand crops
    are sampled larger at [2/3, 4.5] and MPII hand at [0.5, 4.0]. Rotation
    is +-45 degrees, flip 50%, crop 480x480 everywhere.
    """
    default_aug = AugmentationRanges()
    body = frozenset({PartGroup.BODY})
    face = frozenset({PartGroup.FACE})
    hand = frozenset({PartGroup.HAND})
    return (
        DatasetSpec("coco", 118287, body, 0.7651),
        DatasetSpec("foot", 14455, frozenset({PartGroup.BODY, PartGroup.FOOT}), 0.05),
        DatasetSpec("mpii", 24984, body, 0.05),
        DatasetSpec("face_a", 5000, face, 0.0033),
        DatasetSpec("face_b", 10000, face, 0.0033),
        DatasetSpec("face_c", 1500, face, 0.0033),
        DatasetSpec(
            "dome_hand", 14817, hand, 0.005,
            AugmentationRanges(scale=(2.0 / 3.0, 4.5)),
        ),
        DatasetSpec(
            "mpii_hand", 1912, hand, 0.05,
            AugmentationRanges(scale=(0.5, 4.0)),
        ),
        DatasetSpec("wholebody", 7588, frozenset(PartGroup), 0.05),
        DatasetSpec(
            "no_people", 4000, frozenset(), 0.02,
            default_aug, Special.NO_PEOPLE,
        ),
    )


def validate_registry(registry: Sequence[DatasetSpec]) -> None:
    if not registry:
        raise DocumentError("registry is empty")
    names = [spec.name for spec in registry]
    if len(set(names)) != len(names):
        raise DocumentError("duplicate dataset names in registry")
    total = sum(spec.probability for spec in registry)
    if abs(total - 1.0) > 1e-9:
        raise DocumentError(f"probabilities sum to {total!r}, expected 1.0")


def registry_hash(registry: Sequence[DatasetSpec]) -> str:
    return hashlib.sha256(
        json.dumps(registry_to_json(registry), sort_keys=True).encode()
    ).hexdigest()


def registry_to_json(registry: Sequence[DatasetSpec]) -> dict:
    return {
        "registry_version": REGISTRY_VERSION,
        "datasets": [
            {**asdict(s), "coverage": sorted(g.value for g in s.coverage),
             "special": s.special.value}
            for s in registry
        ],
    }


def registry_from_json(doc: Mapping) -> tuple[DatasetSpec, ...]:
    """The registry of a registry_to_json document; DocumentError on
    anything else, naming the bad node."""
    version = read(read(doc, dict, "registry").get("registry_version"), int, "registry_version")
    if version != REGISTRY_VERSION:
        raise DocumentError(f"unsupported registry_version {version!r}")
    specs = []
    for entry in read(doc.get("datasets", []), list[dict], "registry datasets"):
        specs.append(from_json(DatasetSpec, entry, f"bad dataset entry {entry.get('name', '?')!r}"))
    registry = tuple(specs)
    validate_registry(registry)
    return registry


def pick_dataset(registry: Sequence[DatasetSpec], rng: np.random.Generator) -> DatasetSpec:
    """The source dataset of one batch, picked by inverse CDF in registry
    order. The registry must be valid (validate_registry)."""
    u = float(rng.random())
    acc = 0.0
    for spec in registry:
        acc += spec.probability
        if u < acc:
            return spec
    return registry[-1]  # guard against float leftovers at u ~ 1


def draw_augmentation(spec: DatasetSpec, rng: np.random.Generator) -> AugmentationDraw:
    """One augmentation tuple for one image: uniform scale over the spec
    range, uniform rotation over +-range, Bernoulli flip, uniform fractional
    crop placement. Draw order within the generator is fixed."""
    lo, hi = spec.aug.scale
    scale = float(rng.uniform(lo, hi))
    rotation = float(rng.uniform(-spec.aug.rotation_deg, spec.aug.rotation_deg))
    flip = bool(rng.random() < spec.aug.flip_prob)
    crop_offset = (float(rng.random()), float(rng.random()))
    return AugmentationDraw(scale, rotation, flip, crop_offset)


@dataclass(frozen=True)
class BatchPlan:
    batch_index: int
    dataset: str
    draws: tuple[AugmentationDraw, ...]


@dataclass(frozen=True)
class SamplePlan:
    seed: int
    batch_size: int
    registry_hash: str
    batches: tuple[BatchPlan, ...]


def plan_batch(
    registry: Sequence[DatasetSpec], seed: int, batch_index: int, batch_size: int
) -> BatchPlan:
    """Counter layout: batch i owns counters [i*(1+B), (i+1)*(1+B)) — one for
    the dataset pick, then one per image."""
    validate_registry(registry)
    first = batch_index * (1 + batch_size)
    spec = pick_dataset(registry, rng_for(seed, first))
    draws = tuple(
        draw_augmentation(spec, rng_for(seed, first + 1 + k)) for k in range(batch_size)
    )
    return BatchPlan(batch_index=batch_index, dataset=spec.name, draws=draws)


def build_plan(
    registry: Sequence[DatasetSpec], seed: int, n_batches: int, batch_size: int
) -> SamplePlan:
    validate_registry(registry)
    if n_batches < 0 or batch_size <= 0:
        raise ValueError("need n_batches >= 0 and batch_size >= 1")
    batches = tuple(
        plan_batch(registry, seed, i, batch_size) for i in range(n_batches)
    )
    return SamplePlan(
        seed=seed,
        batch_size=batch_size,
        registry_hash=registry_hash(registry),
        batches=batches,
    )


def write_plan_jsonl(plan: SamplePlan, fp: IO[str]) -> None:
    header = {
        "seed": plan.seed,
        "rng_algorithm": RNG_ALGORITHM,
        "registry_hash": plan.registry_hash,
        "batch_size": plan.batch_size,
        "n_batches": len(plan.batches),
    }
    fp.write(json.dumps(header) + "\n")
    for batch in plan.batches:
        fp.write(json.dumps(asdict(batch)) + "\n")


def _plan_line(line: str, line_no: int):
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise DocumentError(f"plan line {line_no}: {e}") from None


def read_plan_jsonl(lines: Iterable[str]) -> SamplePlan:
    """Parse a plan written by write_plan_jsonl; DocumentError on anything else."""
    it = iter(lines)
    try:
        header = read(_plan_line(next(it), 1), dict, "plan header")
    except StopIteration:
        raise DocumentError("empty plan file") from None
    if header.get("rng_algorithm") != RNG_ALGORITHM:
        raise DocumentError(f"plan was written with {header.get('rng_algorithm')!r}")
    seed = read(header.get("seed"), int, "plan header 'seed'")
    batch_size = read(header.get("batch_size"), int, "plan header 'batch_size'")
    registry_hash = read(header.get("registry_hash"), str, "plan header 'registry_hash'")
    n_batches = read_at_least(header.get("n_batches"), int, 0, "plan header 'n_batches'")
    if seed < 0 or batch_size < 1:
        raise DocumentError(
            f"plan header needs seed >= 0 and batch_size >= 1, got {seed}, {batch_size}"
        )
    batches = tuple(
        from_json(BatchPlan, _plan_line(line, line_no), f"plan line {line_no}")
        for line_no, line in enumerate(it, start=2)
        if line.strip()
    )
    if len(batches) != n_batches:
        raise DocumentError(f"plan header promises {n_batches} batches, the file holds {len(batches)}")
    return SamplePlan(seed, batch_size, registry_hash, batches)
