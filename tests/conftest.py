import base64
import json
import os
from pathlib import Path

import numpy as np
import pytest

from iotrisk.dataset import DeviceRecord
from iotrisk.nvd import RiskClass
from iotrisk.tree import PAYLOAD_DTYPES, TreeParams, column_codes, grow_trees


def src_env(**overrides):
    """os.environ with this checkout's sources first on PYTHONPATH, plus
    `overrides`, for a test that runs the package in a subprocess."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def make_record(
    brand="brand_000",
    product_type="type_000",
    category="SmartHome",
    price_usd=49.99,
    protocols="wifi",
    data_storage="Remote",
    personal_information="Yes",
    location_track="No",
    communication_capability="wifi_2_4ghz",
    authorisation_encryption="Symmetric",
    risk_score=RiskClass.Low,
    synthetic=False,
) -> DeviceRecord:
    return DeviceRecord(
        brand=brand,
        product_type=product_type,
        category=category,
        price_usd=price_usd,
        protocols=protocols,
        data_storage=data_storage,
        personal_information=personal_information,
        location_track=location_track,
        communication_capability=communication_capability,
        authorisation_encryption=authorisation_encryption,
        risk_score=risk_score,
        synthetic=synthetic,
    )


def stored_type(key, table_rows):
    """The stored item type of a tree-set array: its `PAYLOAD_DTYPES` one,
    but an index is <i4 once its table holds more than 65,536 rows."""
    return "<i4" if key == "index" and table_rows > 1 << 16 else PAYLOAD_DTYPES[key]


def tree_lists(trees, n_classes=4):
    """The arrays of a tree-set payload, decoded to lists of numbers; a
    classification table holds rows of n_classes numbers."""
    assert all(isinstance(text, str) for text in trees.values())
    raw = {key: base64.b64decode(text, validate=True) for key, text in trees.items()}
    rows = len(raw.get("table", b"")) // (8 * n_classes)
    return {key: np.frombuffer(data, stored_type(key, rows)).tolist()
            for key, data in raw.items()}


def tree_payload(lists, n_classes=4):
    """Lists of numbers encoded back into a tree-set payload."""
    rows = len(lists.get("table", [])) // n_classes
    return {key: base64.b64encode(np.array(values, stored_type(key, rows)).tobytes()).decode()
            for key, values in lists.items()}


def assert_same_arrays(tree_set, clone):
    """Every array of two tree sets holds the same type and the same bits:
    a regression set's leaf values, a classification set's table and index."""
    for name in ("nodes", "feature", "threshold", "right", "value", "table", "index"):
        a, b = getattr(tree_set, name), getattr(clone, name)
        if a is None or b is None:
            assert a is b, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def grow_one(matrix, targets, weights=None, params=None, mode="classification",
             n_classes=None, rng=None, leaf_value_fn=None, codes=None):
    """One tree grown on every row of ``matrix`` as a `grow_trees` group of
    one, its rows weighing 1/n by default: the set and its root decrease."""
    X = np.ascontiguousarray(matrix, dtype=float)
    n = len(X)
    w = np.full(n, 1.0 / n) if weights is None else weights
    grown, root_decrease = grow_trees(
        X, column_codes(X) if codes is None else codes, n_classes, mode,
        params or TreeParams(), [(np.arange(n), targets, w, rng)], leaf_value_fn)
    return grown, float(root_decrease[0])


def feed_item(cve_id="CVE-2019-0001", base_score=9.8, cpe_uris=None,
              description="smart_camera buffer overflow", published="2019-03-01T10:00Z"):
    item = {
        "cve": {
            "CVE_data_meta": {"ID": cve_id},
            "description": {
                "description_data": [{"lang": "en", "value": description}]
            },
        },
        "configurations": {
            "nodes": [
                {
                    "cpe_match": [
                        {"vulnerable": True, "cpe23Uri": uri}
                        for uri in (cpe_uris or [])
                    ]
                }
            ]
        },
        "publishedDate": published,
    }
    if base_score is not None:
        item["impact"] = {"baseMetricV3": {"cvssV3": {"baseScore": base_score}}}
    else:
        item["impact"] = {}
    return item


def feed_document(items) -> str:
    return json.dumps({"CVE_data_type": "CVE", "CVE_Items": items})


@pytest.fixture
def record_factory():
    return make_record
