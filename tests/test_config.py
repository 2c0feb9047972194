import json

import pytest

from funreg import config
from funreg.errors import ValidationError


class TestValue:
    @pytest.mark.parametrize("typ,raw", [
        (int, 2.7), (int, 2.0), (int, "2"), (int, True), (int, None),
        (float, True), (float, "1.5"), (float, [1.0]), (float, float("nan")),
        (float, float("inf")), (float, 10**400),
        (bool, "no"), (bool, 0), (bool, None),
        (str, 5), (str, ["power"]),
    ])
    def test_wrong_json_type_rejected(self, typ, raw):
        with pytest.raises(ValidationError, match=r"cfg\.k must be"):
            config.value({"k": raw}, "k", "cfg", typ)

    @pytest.mark.parametrize("raw", ["1.5", float("nan"), float("inf"), True])
    def test_number_message_wording(self, raw):
        with pytest.raises(ValidationError) as info:
            config.value({"k": raw}, "k", "cfg", float)
        assert str(info.value) == f"cfg.k must be a finite number, got {raw!r}"

    @pytest.mark.parametrize("typ,raw,expected", [
        (int, 3, 3), (float, 3, 3.0), (float, -0.5, -0.5),
        (bool, False, False), (str, "power", "power"),
    ])
    def test_right_json_type_accepted(self, typ, raw, expected):
        got = config.value({"k": raw}, "k", "cfg", typ)
        assert got == expected and type(got) is typ

    def test_missing_and_default(self):
        with pytest.raises(ValidationError, match="missing config key 'k'"):
            config.value({}, "k", "cfg", int)
        assert config.value({}, "k", "cfg", int, 7) == 7
        assert config.value({"k": None}, "k", "cfg", int, None) is None
        with pytest.raises(ValidationError):
            config.value({"k": None}, "k", "cfg", int, 7)

    def test_numbers(self):
        assert config.numbers({"k": [1, 2.5]}, "k", "cfg", float) == [1.0, 2.5]
        assert config.numbers({}, "k", "cfg", float, []) == []
        with pytest.raises(ValidationError, match=r"cfg\.k must be a list"):
            config.numbers({"k": 5}, "k", "cfg", float)
        with pytest.raises(ValidationError, match=r"cfg\.k\[1\] must be an integer"):
            config.numbers({"k": [1, 2.0]}, "k", "cfg", int)


class TestSectionAndKind:
    def test_section(self):
        cfg = {"a": 1, "b": 2}
        assert config.section(cfg, "cfg", {"a"}, {"b", "c"}) is cfg
        with pytest.raises(ValidationError, match="missing config keys"):
            config.section(cfg, "cfg", {"a", "c"})
        with pytest.raises(ValidationError, match="unknown config keys"):
            config.section(cfg, "cfg", {"a"})
        with pytest.raises(ValidationError, match="must be an object"):
            config.section([1], "cfg")

    KINDS = {"power": (("a",), ("b",)), "geometric": (("r",), ())}

    def test_kind_dispatch(self):
        assert config.kind({"kind": "power", "a": 1}, "decay", self.KINDS) == "power"
        assert config.kind({"kind": "geometric", "r": 0.5}, "decay", self.KINDS) == "geometric"

    @pytest.mark.parametrize("cfg", [
        {"kind": "power"},                          # missing a
        {"kind": "geometric", "r": 0.5, "a": 1},    # a belongs to power
        {"kind": "cubic"},
        {"kind": ["power"], "a": 1},
        {"a": 1},
        "power",
    ])
    def test_kind_rejects(self, cfg):
        with pytest.raises(ValidationError):
            config.kind(cfg, "decay", self.KINDS)


class TestJsonFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.json"
        config.write_json(path, {"x": [1, 2.5], "y": None})
        assert path.read_text() == json.dumps({"x": [1, 2.5], "y": None}, indent=2) + "\n"
        assert config.read_json(path) == {"x": [1, 2.5], "y": None}

    @pytest.mark.parametrize("content", [b"{not json", b"[1, 2]", b"\xff\xfe{}"])
    def test_bad_files_rejected(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError):
            config.read_json(path)

    def test_missing_and_unwritable(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            config.read_json(tmp_path / "none.json")
        with pytest.raises(ValidationError, match="cannot write"):
            config.write_json(tmp_path / "no-dir" / "a.json", {})
