"""errors.check_fields: every number field of every checked dataclass."""

import dataclasses

import numpy as np
import pytest

from collapselab import FeatureMap, GeneratorSpec, SelectionPolicy
from collapselab.errors import ConfigError, check_fields
from collapselab.looper import IterationRecord, LoopConfig
from collapselab.metrics import EntropyReport, MomentSummary

_ENTROPY = EntropyReport(estimate=1.0, gamma=1, duplicate_count=0, log_distance_sum=0.0, size=2, dim=1)

# One valid instance of each dataclass that calls check_fields.
VALID = [
    GeneratorSpec(kind="gmm"),
    SelectionPolicy(kind="threshold_decay", tau0=1.0, alpha=0.5, initial_index=0),
    FeatureMap(kind="randproj", target_dim=2, seed=7),
    LoopConfig(paradigm="replace", iterations=1, train_size=5, generator=GeneratorSpec(kind="gaussian"),
               generation_multiplier=1.0),
    _ENTROPY,
    MomentSummary(mean=np.zeros(1), covariance=np.ones((1, 1)), trace_cov=1.0),
    IterationRecord(iteration=1, entropy=_ENTROPY, gs=0.5, mnnd=0.5, trace_cov=1.0, frechet_real=0.0,
                    source_proportions={"real": 1.0}, duplicate_count=0),
]


def _number_fields():
    """(instance, field, number type, None allowed, values of a dict) of each
    number field, read from the annotation here and not from the table
    check_fields uses."""
    for obj in VALID:
        for f in dataclasses.fields(obj):
            in_dict = f.type == "dict[str, float]"
            kind = "float" if in_dict else f.type.removesuffix(" | None")
            if kind in ("int", "float"):
                yield obj, f.name, kind, f.type.endswith(" | None"), in_dict


NUMBER_FIELDS = list(_number_fields())
IDS = [f"{type(obj).__name__}.{name}" for obj, name, *_ in NUMBER_FIELDS]


def test_every_checked_dataclass_has_number_fields():
    assert {type(obj) for obj, *_ in NUMBER_FIELDS} == {type(obj) for obj in VALID}


@pytest.mark.parametrize("obj, name, kind, optional, in_dict", NUMBER_FIELDS, ids=IDS)
def test_bool_and_text_are_refused_naming_the_field(obj, name, kind, optional, in_dict):
    for bad in (True, "1"):
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            dataclasses.replace(obj, **{name: {"real": bad} if in_dict else bad})


@pytest.mark.parametrize("obj, name, kind, optional, in_dict", NUMBER_FIELDS, ids=IDS)
def test_float_fields_take_an_int_and_int_fields_refuse_a_float(obj, name, kind, optional, in_dict):
    value = 1 if kind == "float" else 1.0
    changed = {name: {"real": value} if in_dict else value}
    if kind == "float":
        assert getattr(dataclasses.replace(obj, **changed), name) == changed[name]
    else:
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            dataclasses.replace(obj, **changed)


@pytest.mark.parametrize("target_dim, seed", [(2.5, 7), (True, 7), (2, 7.9), ("2", 7)])
def test_random_projection_passes_its_settings_to_the_check_as_given(target_dim, seed):
    with pytest.raises(ConfigError, match=r"must be int \| None"):
        FeatureMap(kind="randproj", target_dim=target_dim, seed=seed)


@pytest.mark.parametrize("obj, name, kind, optional, in_dict", NUMBER_FIELDS, ids=IDS)
def test_none_passes_only_a_field_declared_optional(obj, name, kind, optional, in_dict):
    # The check itself, on a copy: some classes refuse a None that their
    # annotation allows (randproj needs its seed) with a range check.
    copy = dataclasses.replace(obj)
    object.__setattr__(copy, name, None)
    if optional:
        check_fields(copy)
    else:
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            check_fields(copy)
