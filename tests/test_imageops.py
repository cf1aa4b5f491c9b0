import numpy as np
import pytest

from faceseg.imageops import read_pgm, write_pgm


def test_pgm_round_trip_is_8_bit_exact(tmp_path):
    img = np.random.default_rng(0).random((7, 5))
    write_pgm(tmp_path / "a.pgm", img)
    back = read_pgm(tmp_path / "a.pgm")
    assert back.shape == (7, 5)
    assert np.array_equal(back, np.rint(img * 255.0) / 255.0)


def test_pgm_header_comments_and_split_fields(tmp_path):
    pixels = bytes(range(6))
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# written by hand\n3 # width\n2\n# maxval next\n255\n" + pixels)
    assert np.array_equal(read_pgm(path) * 255.0, np.arange(6.0).reshape(2, 3))


def test_pgm_short_payload_names_file_and_byte_counts(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 3\n255\n" + bytes(5))
    with pytest.raises(ValueError, match=r"short\.pgm: expected 12 pixel bytes .* got 5"):
        read_pgm(path)


@pytest.mark.parametrize("header", [b"P2\n2 2\n255\n", b"P5\n2 2\n", b""])
def test_pgm_bad_header_is_a_value_error(tmp_path, header):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(4))
    with pytest.raises(ValueError, match="bad.pgm"):
        read_pgm(path)
