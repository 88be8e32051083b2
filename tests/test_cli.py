"""CLI surface: flags, outputs, exit codes."""
import numpy as np
import pytest

import gradcv as g
from gradcv.cli import build_parser, main
from gradcv.demos import synthetic
from gradcv.geometry import make_camera, save_camera


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["register", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--seed", "--levels", "--iters", "--lr", "--out"):
        assert flag in out


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["bench", "--op", "warp", "--batches", "1,2"])
    assert args.command == "bench"
    args = parser.parse_args(["attack", "a.pgm", "b.pgm", "h.txt", "--beta", "5"])
    assert args.beta == 5.0
    args = parser.parse_args(["depth", "r.pgm", "r.cam", "s.pgm", "s.cam", "--lambda", "0.2"])
    assert args.lam == 0.2


def test_register_cli_end_to_end(tmp_path, capsys):
    img = synthetic.smooth_texture(32, 32, seed=1)
    src = tmp_path / "src.pgm"
    dst = tmp_path / "dst.pgm"
    g.save_image(src, img)
    g.save_image(dst, img)
    out = tmp_path / "out"
    code = main(
        ["register", str(src), str(dst), "--levels", "2", "--iters", "5", "--out", str(out)]
    )
    assert code == 0
    assert (out / "trace.csv").exists()
    assert "homography" in capsys.readouterr().out


def test_register_cli_evaluate_only(tmp_path, capsys):
    img = synthetic.smooth_texture(32, 32, seed=1)
    src = tmp_path / "src.pgm"
    g.save_image(src, img)
    out = tmp_path / "out"
    assert main(["register", str(src), str(src), "--levels", "2", "--iters", "0", "--out", str(out)]) == 0
    assert (out / "trace.csv").read_text().splitlines() == ["iteration,level,loss"]
    assert "final loss: 0" in capsys.readouterr().out


def test_register_cli_missing_file(tmp_path, capsys):
    code = main(["register", str(tmp_path / "nope.pgm"), str(tmp_path / "nope2.pgm")])
    assert code == 5


def test_register_cli_bad_levels(tmp_path, capsys):
    img = synthetic.smooth_texture(16, 16, seed=2)
    p = tmp_path / "i.pgm"
    g.save_image(p, img)
    code = main(["register", str(p), str(p), "--levels", "0"])
    assert code == 2


def test_depth_cli_end_to_end(tmp_path, capsys):
    views, _ = synthetic.plane_scene(height=32, width=40, focal=40.0, seed=3)
    paths = []
    for i, (img, cam) in enumerate(views):
        ip = tmp_path / f"v{i}.pgm"
        cp = tmp_path / f"v{i}.cam"
        g.save_image(ip, img)
        save_camera(cp, cam)
        paths += [str(ip), str(cp)]
    out = tmp_path / "depth_out"
    code = main(
        ["depth", *paths, "--levels", "2", "--iters", "3", "--lr", "10", "--out", str(out)]
    )
    assert code == 0
    assert (out / "depth.pgm").exists()
    assert "final loss" in capsys.readouterr().out


def test_depth_cli_evaluate_only(tmp_path, capsys):
    views, _ = synthetic.plane_scene(height=32, width=40, focal=40.0, seed=3)
    paths = []
    for i, (img, cam) in enumerate(views):
        ip, cp = tmp_path / f"v{i}.pgm", tmp_path / f"v{i}.cam"
        g.save_image(ip, img)
        save_camera(cp, cam)
        paths += [str(ip), str(cp)]
    assert main(["depth", *paths, "--levels", "2", "--iters", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split(":")[1].strip() == lines[1].split(":")[1].strip()  # initial == final loss


def test_depth_cli_odd_view_args(tmp_path):
    img = synthetic.smooth_texture(16, 16, seed=4)
    p = tmp_path / "i.pgm"
    g.save_image(p, img)
    assert main(["depth", str(p)]) == 2


def test_attack_cli_no_keypoints_exit3(tmp_path, capsys):
    flat = tmp_path / "flat.pgm"
    g.save_image(flat, np.full((16, 96, 96)[1:], 0.5))
    h = tmp_path / "h.txt"
    np.savetxt(h, np.eye(3))
    code = main(["attack", str(flat), str(flat), str(h), "--iters", "1"])
    assert code == 3


def test_attack_cli_end_to_end(tmp_path, capsys):
    img_a = synthetic.smooth_texture(96, 96, seed=5, octaves=2)
    img_b = synthetic.smooth_texture(96, 96, seed=77, octaves=2)
    pa, pb = tmp_path / "a.pgm", tmp_path / "b.pgm"
    g.save_image(pa, img_a)
    g.save_image(pb, img_b)
    hp = tmp_path / "h.txt"
    np.savetxt(hp, synthetic.rotation_translation_h(96, 96, 2.0, 3.0, -1.0))
    out = tmp_path / "atk"
    code = main(
        [
            "attack", str(pa), str(pb), str(hp),
            "--iters", "4", "--keypoints", "60", "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "attacked_a.pgm").exists()
    assert "target-consistent matches" in capsys.readouterr().out


def test_bench_cli(tmp_path, capsys):
    out = tmp_path / "bench_out"
    code = main(
        ["bench", "--op", "sobel", "--batches", "1,2", "--size", "32", "--repeats", "3",
         "--out", str(out)]
    )
    assert code == 0
    assert (out / "bench.csv").exists()
    assert "per_sample_ms" in capsys.readouterr().out


# --- malformed inputs: exit code 2, and the message names the stage and the file --------


def test_register_cli_malformed_image(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\nabc 16\n255\n" + bytes(256))
    assert main(["register", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "register" in err and "reading PNM file" in err and str(bad) in err


def test_depth_cli_malformed_camera(tmp_path, capsys):
    views, _ = synthetic.plane_scene(height=32, width=40, focal=40.0, seed=3)
    paths = []
    for i, (img, cam) in enumerate(views[:2]):
        ip, cp = tmp_path / f"v{i}.pgm", tmp_path / f"v{i}.cam"
        g.save_image(ip, img)
        save_camera(cp, cam)
        paths += [str(ip), str(cp)]
    lines = (tmp_path / "v1.cam").read_text().splitlines()
    (tmp_path / "v1.cam").write_text("\n".join(["40 40 20"] + lines[1:]) + "\n")  # 3 intrinsics
    assert main(["depth", *paths, "--levels", "1", "--iters", "1"]) == 2
    err = capsys.readouterr().err
    assert "depth" in err and "reading camera file" in err and str(tmp_path / "v1.cam") in err


@pytest.mark.parametrize("rows", [np.eye(3)[:2], np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, np.nan]])])
def test_attack_cli_malformed_homography(tmp_path, capsys, rows):
    img = tmp_path / "a.pgm"
    g.save_image(img, synthetic.smooth_texture(48, 48, seed=5))
    h = tmp_path / "h.txt"
    np.savetxt(h, rows)
    assert main(["attack", str(img), str(img), str(h), "--iters", "1"]) == 2
    err = capsys.readouterr().err
    assert "attack" in err and "reading homography file" in err and str(h) in err


def test_attack_cli_degenerate_homography_exit2(tmp_path, capsys):
    # a bottom row of zeros sends every point to infinity: bad input, not a crash
    paths = []
    for seed in (5, 77):
        p = tmp_path / f"{seed}.pgm"
        g.save_image(p, synthetic.smooth_texture(96, 96, seed=seed, octaves=2))
        paths.append(str(p))
    h = tmp_path / "h.txt"
    np.savetxt(h, [[1.0, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert main(["attack", *paths, str(h), "--iters", "1", "--keypoints", "60"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: attack: ") and "Traceback" not in err


@pytest.mark.parametrize("batches", ["1,x", "0,2", ","])
def test_bench_cli_malformed_batches(capsys, batches):
    assert main(["bench", "--batches", batches, "--size", "8", "--repeats", "3"]) == 2
    err = capsys.readouterr().err
    assert "bench" in err and "--batches" in err and repr(batches) in err
