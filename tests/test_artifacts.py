import json
import math
import tracemalloc

import pytest

from iotrisk.artifacts import _write_json


class TestModelFileWriter:
    @pytest.mark.parametrize("value", [
        {"b": [1, 2.5, None, True], "a": {"z": "x\nyé\U0001f600", "y": ()},
         "c": math.nan, "d": {2: 1.0, 0: -0.0}, "e": ""},
        ["A" * 200_003, ("q\"\\" * 70_000, -3)],
        "plain",
    ])
    def test_writes_the_bytes_of_json_dump(self, tmp_path, value):
        path = tmp_path / "out.json"
        with open(path, "w", encoding="utf-8") as out:
            _write_json(out, value)
        assert path.read_text(encoding="utf-8") == json.dumps(
            value, sort_keys=True, separators=(",", ":"))

    def test_a_long_string_is_never_copied_whole(self, tmp_path):
        text = "QUJD" * 625_000  # 2.5 MB, the size of a voting model's leaf values
        tracemalloc.start()
        try:
            with open(tmp_path / "out.json", "w", encoding="utf-8") as out:
                _write_json(out, {"value": text})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text) / 4
