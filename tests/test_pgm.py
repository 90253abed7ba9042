import numpy as np
import pytest

from crtrack.pgm import read_pgm, write_pgm


class TestWrite:
    def test_header_layout(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_pgm(path, np.zeros((3, 5), dtype=np.uint8))
        data = path.read_bytes()
        assert data.startswith(b"P5\n5 3\n255\n")
        assert len(data) == len(b"P5\n5 3\n255\n") + 15

    @pytest.mark.parametrize(
        "image",
        [np.zeros((3, 5)), np.zeros((3, 5), dtype=np.int32), np.zeros(15, dtype=np.uint8)],
    )
    def test_rejects_wrong_shape_or_dtype(self, tmp_path, image):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "b.pgm", image)


class TestRead:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(17, 23)).astype(np.uint8)
        path = tmp_path / "c.pgm"
        write_pgm(path, image)
        np.testing.assert_array_equal(read_pgm(path), image)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "d.pgm"
        pixels = bytes(range(6))
        path.write_bytes(b"P5\n# made elsewhere\n3 # width\n2\n255\n" + pixels)
        image = read_pgm(path)
        np.testing.assert_array_equal(image, np.arange(6, dtype=np.uint8).reshape(2, 3))

    def test_smaller_maxval_is_accepted(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n2 2\n200\n" + bytes([0, 50, 100, 200]))
        # scaled to 0..255 with rounding: (v * 255 + 100) // 200
        np.testing.assert_array_equal(read_pgm(path), [[0, 64], [128, 255]])

    @pytest.mark.parametrize("maxval", [1, 3, 100, 254, 255, 256, 1000, 4095, 65535])
    def test_every_sample_scales_by_rounding(self, tmp_path, maxval):
        samples = np.unique(np.linspace(0, maxval, 50).round().astype(np.int64))
        raw = samples.astype(np.uint8 if maxval <= 255 else ">u2").tobytes()
        path = tmp_path / "s.pgm"
        path.write_bytes(f"P5\n{samples.size} 1\n{maxval}\n".encode() + raw)
        expected = [(v * 255 + maxval // 2) // maxval for v in samples.tolist()]
        image = read_pgm(path)
        assert image.dtype == np.uint8 and image.tolist() == [expected]
        assert image[0, 0] == 0 and image[0, -1] == 255

    def test_sixteen_bit_file_equals_its_eight_bit_twin(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(9, 13)).astype(np.uint8)
        write_pgm(tmp_path / "eight.pgm", image)
        wide = tmp_path / "sixteen.pgm"
        wide.write_bytes(b"P5\n13 9\n65535\n" + (image.astype(">u2") * 257).tobytes())
        np.testing.assert_array_equal(read_pgm(wide), read_pgm(tmp_path / "eight.pgm"))
        np.testing.assert_array_equal(read_pgm(wide), image)

    def test_sixteen_bit_sample_above_maxval_and_truncation(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n2 1\n1000\n" + np.array([5, 1001], dtype=">u2").tobytes())
        with pytest.raises(ValueError, match="sample 1001 above maxval 1000"):
            read_pgm(path)
        path.write_bytes(b"P5\n2 1\n1000\n" + bytes(3))
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    def test_rejects_sample_above_maxval(self, tmp_path):
        path = tmp_path / "e2.pgm"
        path.write_bytes(b"P5\n2 2\n200\n" + bytes([0, 50, 201, 200]))
        with pytest.raises(ValueError, match="e2.pgm: sample 201 above maxval 200"):
            read_pgm(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError, match="P5"):
            read_pgm(path)

    def test_rejects_bad_maxval(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 2\n70000\n" + bytes(8))
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(path)

    def test_rejects_truncated_pixels(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    def test_result_is_writable_copy(self, tmp_path):
        path = tmp_path / "i.pgm"
        write_pgm(path, np.zeros((2, 2), dtype=np.uint8))
        image = read_pgm(path)
        image[0, 0] = 9  # must not raise: a frombuffer view would be read-only
