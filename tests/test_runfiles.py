import numpy as np
import pytest

from qeopt.rng import stream
from qeopt.runfiles import make_manifest, read_manifest, write_csv, write_manifest


class TestStreams:
    def test_deterministic(self):
        a = stream(7, "tabu", 3).standard_normal(5)
        b = stream(7, "tabu", 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_key_parts_split_streams(self):
        a = stream(7, "tabu", 3).standard_normal(5)
        b = stream(7, "tabu", 4).standard_normal(5)
        c = stream(7, "hops", 3).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_string_keys_are_stable(self):
        # sha256-derived words, not hash(): stable across processes
        a = stream(0, "sample").integers(0, 1 << 30)
        assert a == stream(0, "sample").integers(0, 1 << 30)

    def test_bad_key_type(self):
        with pytest.raises(TypeError):
            stream(0, 1.5)


class TestCsvAndManifest:
    def test_floats_round_trip_17g(self, tmp_path):
        path = tmp_path / "t.csv"
        value = 0.1234567890123456789
        write_csv(path, ["x"], [[value]])
        got = float(path.read_text().splitlines()[1])
        assert got == value

    def test_manifest_round_trip(self, tmp_path):
        manifest = make_manifest("solve", ["solve", "--d", "2"], {"d": 2}, 5,
                                 ["in.txt"], ["out.csv"])
        write_manifest(manifest, tmp_path / "out.csv")
        again = read_manifest(tmp_path / "out.csv.manifest.json")
        assert again.command == "solve"
        assert again.argv == ["solve", "--d", "2"]
        assert again.config == {"d": 2}
        assert again.seed == 5
