"""Tests for binary PGM serialization of gray maps."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pointedge import GrayMap, read_graymap, write_graymap


class TestGraymapFormat:
    def test_header_and_sample_layout(self, tmp_path):
        gm = GrayMap([[0.0, 1.0, 0.5]])
        path = tmp_path / "g.pgm"
        write_graymap(gm, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 1\n65535\n")
        samples = np.frombuffer(data[len(b"P5\n3 1\n65535\n"):], dtype=">u2")
        assert samples.tolist() == [0, 65535, 32768]

    def test_roundtrip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.random((7, 5))
        path = tmp_path / "g.pgm"
        write_graymap(GrayMap(values), path)
        back = read_graymap(path)
        assert back.height == 7 and back.width == 5
        assert np.abs(back.values - values).max() <= 0.5 / 65535 + 1e-12

    def test_exact_values_roundtrip(self, tmp_path):
        gm = GrayMap([[0.0, 1.0], [1.0, 0.0]])
        path = tmp_path / "g.pgm"
        write_graymap(gm, path)
        assert (read_graymap(path).values == gm.values).all()

    @pytest.mark.parametrize("maxval", [1, 255, 65535])
    def test_read_values_are_read_only_and_exact(self, tmp_path, maxval):
        samples = np.random.default_rng(maxval).integers(0, maxval + 1, size=(5, 7))
        dtype = ">u2" if maxval > 255 else np.uint8
        path = tmp_path / "g.pgm"
        path.write_bytes(
            f"P5\n7 5\n{maxval}\n".encode("ascii") + samples.astype(dtype).tobytes()
        )
        gm = read_graymap(path)
        expected = samples.astype(dtype).astype(np.float64) / maxval
        assert gm.values.dtype == np.float64
        assert gm.values.tobytes() == expected.tobytes()
        assert not gm.values.flags.writeable
        with pytest.raises(ValueError):
            gm.values[0, 0] = 0.0

    def test_bytes_are_the_rounded_16_bit_samples(self, tmp_path):
        # Half-way points round to even, as np.rint does.
        rng = np.random.default_rng(19)
        k = rng.integers(0, 65535, size=40)
        halves = np.concatenate(((k + 0.5) / 65535, [0.5, 0.25, 0.75, 1 / 131070]))
        values = np.concatenate(
            (halves, np.nextafter(halves, 0.0), np.nextafter(halves, 1.0),
             rng.random(104), [0.0, 1.0, 5e-324, 1.0 - 2.0**-53])
        ).reshape(12, 20)
        path = tmp_path / "g.pgm"
        write_graymap(GrayMap(values), path)
        expected = b"P5\n20 12\n65535\n" + np.rint(values * 65535).astype(">u2").tobytes()
        assert path.read_bytes() == expected

    def test_write_is_deterministic(self, tmp_path):
        gm = GrayMap(np.linspace(0, 1, 12).reshape(3, 4))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_graymap(gm, a)
        write_graymap(gm, b)
        assert a.read_bytes() == b.read_bytes()


class TestReaderRobustness:
    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n# again\n1\n" + bytes([1, 0]))
        assert read_graymap(path).values.tolist() == [[1.0, 0.0]]

    def test_low_maxval_scaling(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]))
        gm = read_graymap(path)
        assert gm.values.tolist() == [[0.0, 1.0]]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ValueError):
            read_graymap(path)

    def test_truncated_samples(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n3 2\n65535\n" + b"\x00" * 6)
        with pytest.raises(ValueError):
            read_graymap(path)

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\nwide tall\n1\n\x00")
        with pytest.raises(ValueError):
            read_graymap(path)

    def test_sample_above_maxval(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\n1 1\n7\n" + bytes([9]))
        with pytest.raises(ValueError):
            read_graymap(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_graymap(tmp_path / "absent.pgm")


# A valid 8-bit and a valid 16-bit file, each with a header comment.
VALID_PGMS = {
    "8-bit": b"P5\n# comment\n3 2\n255\n" + bytes([0, 7, 255, 128, 1, 2]),
    "16-bit": b"P5\n3 2\n# comment\n65535\n" + np.arange(6, dtype=">u2").tobytes(),
}


def read_or_located_error(path):
    """Read ``path``; any failure must be a ValueError that names the file."""
    try:
        return read_graymap(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return None


class TestReaderFuzz:
    @pytest.mark.parametrize("name", sorted(VALID_PGMS))
    def test_every_truncation_fails_with_the_path(self, tmp_path, name):
        data = VALID_PGMS[name]
        path = tmp_path / "t.pgm"
        path.write_bytes(data)
        assert read_graymap(path).values.shape == (2, 3)
        for end in range(len(data)):
            path.write_bytes(data[:end])
            assert read_or_located_error(path) is None, end

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"P5\n3 2\n255", "header ends right after maxval"),
            (b"P5\n1 1\n65535\n\x00", "odd byte count of 16-bit samples"),
            (b"P5\n1 1\n65535\n\x00\x00\x00", "odd byte count of 16-bit samples"),
            (b"P5\n" + b"1" * 5000 + b" 1\n255\n\x00", "5000-digit width"),
        ],
        ids=["maxval-at-end", "16-bit-1-byte", "16-bit-3-bytes", "5000-digit-width"],
    )
    def test_bad_lengths_name_the_file(self, tmp_path, data, reason):
        path = tmp_path / "s.pgm"
        path.write_bytes(data)
        assert read_or_located_error(path) is None, reason

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        name=st.sampled_from(sorted(VALID_PGMS)),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["replace", "insert", "delete"]),
                st.integers(0, 24),
                st.integers(0, 255),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_mutated_header_reads_or_fails_with_the_path(self, tmp_path, name, edits):
        data = bytearray(VALID_PGMS[name])
        header = len(data) - 6 * (2 if name == "16-bit" else 1)
        for op, at, value in edits:
            at = at % header
            if op == "replace":
                data[at] = value
            elif op == "insert":
                data.insert(at, value)
                header += 1
            elif header > 1:
                del data[at]
                header -= 1
        path = tmp_path / "m.pgm"
        path.write_bytes(bytes(data))
        graymap = read_or_located_error(path)
        if graymap is not None:
            assert ((graymap.values >= 0.0) & (graymap.values <= 1.0)).all()
