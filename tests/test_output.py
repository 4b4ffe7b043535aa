import json
import struct

import pytest

from zenosim.output import write_json

PAYLOAD = {
    "floats": [-0.0, 5e-324, 1e-300, 0.1 + 0.2],
    "nested": {"rows": [{"p": 1e-300, "q": [-0.0, [5e-324]]}], "empty": {}, "none": None},
    "flag": True,
}


def _bits(value):
    """The payload with every float replaced by its IEEE-754 bytes, so == compares bits."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_bits(item) for item in value]
    return value


def test_write_json_runs_the_c_encoder_and_round_trips_floats_bit_for_bit(monkeypatch, tmp_path):
    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("json fell back to its pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    with pytest.raises(AssertionError):  # an indent takes the pure-Python path, which now raises
        json.dumps(PAYLOAD, indent=2)
    path = tmp_path / "out.json"
    write_json(path, PAYLOAD)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n") and text.count("\n") == 1
    assert _bits(json.loads(text)) == _bits(PAYLOAD)
