"""PPM/PGM round trips and header handling."""
import numpy as np
import pytest

import gradcv as g


def test_pgm_roundtrip_8bit(tmp_path):
    img = np.linspace(0, 1, 48).reshape(6, 8)
    path = tmp_path / "a.pgm"
    g.write_pnm(path, img)
    back = g.read_pnm(path)
    assert back.shape == (6, 8)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12


def test_ppm_roundtrip_rgb(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((5, 7, 3))
    path = tmp_path / "a.ppm"
    g.write_pnm(path, img)
    back = g.read_pnm(path)
    assert back.shape == (5, 7, 3)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12


def test_pgm_16bit_depth(tmp_path):
    rng = np.random.default_rng(1)
    depth = rng.random((4, 4))
    path = tmp_path / "d.pgm"
    g.write_pnm(path, depth, maxval=65535)
    back = g.read_pnm(path)
    assert np.abs(back - depth).max() <= 0.5 / 65535 + 1e-12
    # big-endian 16-bit payload per netpbm
    raw = path.read_bytes()
    assert raw.startswith(b"P5")
    assert b"65535" in raw


def test_load_save_image_tensor(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.random((1, 3, 6, 6))
    path = tmp_path / "t.ppm"
    g.save_image(path, img)
    t = g.load_image(path)
    assert t.shape == (1, 3, 6, 6)
    assert np.abs(t.data - img).max() <= 0.5 / 255 + 1e-12


def test_comment_headers_and_errors(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
    img = g.read_pnm(path)
    assert img.shape == (2, 3)
    assert np.allclose(img, np.arange(6).reshape(2, 3) / 255.0)

    bad = tmp_path / "bad.pnm"
    bad.write_bytes(b"P3\n1 1\n255\n0 0 0")
    with pytest.raises(g.ParameterError):
        g.read_pnm(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(g.ParameterError):
        g.read_pnm(trunc)
    for header in (b"P5\n4 x\n255\n", b"P5\n0 4\n255\n"):  # a non-integer size, an empty image
        bad.write_bytes(header + bytes(16))
        with pytest.raises(g.ParameterError, match="reading PNM file"):
            g.read_pnm(bad)


def test_write_clamps_range(tmp_path):
    img = np.array([[-0.5, 2.0]])
    path = tmp_path / "cl.pgm"
    g.write_pnm(path, img)
    back = g.read_pnm(path)
    assert back[0, 0] == 0.0
    assert back[0, 1] == 1.0
