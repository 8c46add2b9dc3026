"""SessionConfig validates every construction, its copies included.

`cli` builds a config from the command line and copies it per q for
`sweep` and per M for `dist --M`; a bad value must raise ValueError on
either path, so the CLI exits 1 before it computes anything.
"""

import pytest

from qsphere.session import SessionConfig

BAD = [("q_text", "abc"), ("q_text", "0"), ("q_text", "3/2"),
       ("scalar_mode", "fast"), ("precision", 14), ("norm_truncation", 1),
       ("seed", -1)]
IDS = [f"{field}={value}" for field, value in BAD]

FULL = dict(q_text="9/10", scalar_mode="float", precision=30,
            norm_truncation=64, search_truncation=6, seed=7)


@pytest.mark.parametrize("field,value", BAD, ids=IDS)
def test_construction_rejects_a_bad_value(field, value):
    with pytest.raises(ValueError):
        SessionConfig(**{field: value})


@pytest.mark.parametrize("field,value", BAD, ids=IDS)
def test_copy_rejects_a_bad_value(field, value):
    with pytest.raises(ValueError):
        SessionConfig(**FULL)._replace(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("q_text", "2/3"), ("scalar_mode", "exact"), ("precision", 40),
    ("norm_truncation", 100), ("search_truncation", 3), ("seed", 0)])
def test_copy_keeps_every_field_it_is_not_given(field, value):
    cfg = SessionConfig(**FULL)
    new = cfg._replace(**{field: value})
    assert type(new) is SessionConfig
    assert new._asdict() == dict(FULL, **{field: value})
    assert cfg._asdict() == FULL


def test_defaults_and_the_trend_tolerance():
    cfg = SessionConfig()
    assert cfg.to_obj() == {
        "q": "1/2", "scalarMode": "exact", "precision": 50,
        "normTruncation": 200, "searchTruncation": 4, "seed": 0}
    assert cfg.trend_tol == SessionConfig.trend_tol == 1e-3
    assert "trend_tol" not in SessionConfig._fields


def test_config_is_frozen():
    cfg = SessionConfig()
    for name in ("q_text", "seed", "trend_tol"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, getattr(cfg, name))
