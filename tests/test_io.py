"""MOT files, embedding sidecars, affine sidecars, and config files."""

import dataclasses
import logging
import struct
from typing import Optional

import numpy as np
import pytest

from conftest import embedding_dict, mot_table
from drone_assoc.core import BoundingBox, ConfigError
from drone_assoc.mot_io import (
    FormatError,
    MotLine,
    RunConfig,
    field_codecs,
    parse_affines,
    parse_detections,
    parse_embeddings,
    parse_mot_lines,
    read_key_values,
    run_config_from_dict,
    write_affines,
    write_embeddings,
    write_mot_file,
    write_results,
)
from drone_assoc.motion import AffineTransform


def mot(frame, obj_id, x, y, w=10.0, h=10.0, score=0.9, class_id=1, vis=1.0):
    return MotLine(frame, obj_id, BoundingBox(x, y, w, h), score, class_id, vis)


class TestMotFiles:
    def test_write_parse_round_trip(self, tmp_path):
        path = str(tmp_path / "gt.txt")
        lines = [mot(2, 7, 1.5, 2.25, 10.0, 20.0, 0.875),
                 mot(1, 3, 0.1, 0.2, 5.5, 6.5, 1.0, class_id=2, vis=0.5)]
        write_mot_file(path, lines, comment="round trip check")
        parsed, stats = parse_mot_lines(path)
        assert stats.lines == 2 and stats.malformed == 0
        want = mot_table(sorted(lines, key=lambda ln: (ln.frame, ln.obj_id)))
        assert np.array_equal(parsed.rows, want.rows)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("# header\n\n1,1,0,0,10,10,0.9,1,1.0\n   \n")
        parsed, stats = parse_mot_lines(str(path))
        assert len(parsed) == 1 and stats.lines == 1

    def test_short_row_is_malformed(self, tmp_path):
        path = tmp_path / "det.txt"
        rows = ["1,1,0,0,10,10,0.9,1,1.0"] * 9 + ["1,2,3"]
        path.write_text("\n".join(rows) + "\n")
        parsed, stats = parse_mot_lines(str(path))
        assert len(parsed) == 9 and stats.malformed == 1

    def test_non_numeric_row_is_malformed(self, tmp_path):
        path = tmp_path / "det.txt"
        rows = ["1,1,0,0,10,10,0.9,1,1.0"] * 9 + ["1,1,zero,0,10,10,0.9,1,1.0"]
        path.write_text("\n".join(rows) + "\n")
        _, stats = parse_mot_lines(str(path))
        assert stats.malformed == 1

    def test_zero_based_frame_is_malformed(self, tmp_path):
        path = tmp_path / "det.txt"
        rows = ["1,1,0,0,10,10,0.9,1,1.0"] * 9 + ["0,1,0,0,10,10,0.9,1,1.0"]
        path.write_text("\n".join(rows) + "\n")
        parsed, stats = parse_mot_lines(str(path))
        assert len(parsed) == 9 and stats.malformed == 1

    def test_too_many_malformed_rows_fatal(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,1,0,0,10,10,0.9,1,1.0\nbroken,row\n")
        with pytest.raises(FormatError):
            parse_mot_lines(str(path))

    def test_empty_box_skipped_with_stat(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,1,0,0,0,10,0.9,1,1.0\n1,2,0,0,10,10,0.9,1,1.0\n")
        parsed, stats = parse_mot_lines(str(path))
        assert len(parsed) == 1
        assert stats.skipped_empty_box == 1
        assert stats.malformed == 0  # lenient skip, not an error

    def test_out_of_range_score_clamped(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,1,0,0,10,10,1.7,1,1.0\n1,2,0,0,10,10,-0.2,1,1.0\n")
        parsed, stats = parse_mot_lines(str(path))
        assert parsed.scores.tolist() == [1.0, 0.0]
        assert stats.clamped_scores == 2

    def test_missing_visibility_defaults_to_one(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,1,0,0,10,10,0.9,1\n")
        parsed, _ = parse_mot_lines(str(path))
        assert parsed.rows[0, 8] == 1.0

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(FormatError):
            parse_mot_lines(str(tmp_path / "missing.txt"))


NON_FINITE_ROWS = [
    "1,9,nan,0,10,10,0.9,1,1.0",
    "1,9,0,inf,10,10,0.9,1,1.0",
    "1,9,0,0,-inf,10,0.9,1,1.0",
    "1,9,0,0,10,nan,0.9,1,1.0",
    "1,9,0,0,10,10,nan,1,1.0",
    "1,9,0,0,10,10,inf,1,1.0",
    "1,9,0,0,10,10,0.9,inf,1.0",
]


class TestNonFiniteRows:
    """A non-finite field is a malformed row, in detections (parse_detections)
    and in ground truth (parse_mot_lines) alike."""

    @staticmethod
    def write(tmp_path, bad_rows, good=18):
        path = tmp_path / "rows.txt"
        rows = [f"{f},1,0,0,10,10,0.9,1,1.0" for f in range(1, good + 1)]
        rows[10:10] = bad_rows  # the first bad row is line 11
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    @pytest.mark.parametrize("bad", NON_FINITE_ROWS)
    def test_one_bad_row_in_21_is_skipped_and_counted(self, tmp_path, caplog, bad):
        path = self.write(tmp_path, [bad], good=20)
        with caplog.at_level(logging.WARNING, logger="drone_assoc.io"):
            lines, stats = parse_mot_lines(path)
        assert len(lines) == 20
        assert stats.lines == 21 and stats.malformed == 1
        assert f"{path}:11:" in caplog.text
        frames = parse_detections(path)
        assert sum(len(fd) for fd in frames) == 20

    @pytest.mark.parametrize("bad", NON_FINITE_ROWS)
    def test_more_than_a_tenth_bad_is_fatal(self, tmp_path, bad):
        path = self.write(tmp_path, [bad] * 3)
        with pytest.raises(FormatError, match="3 of 21 rows malformed"):
            parse_mot_lines(path)
        with pytest.raises(FormatError, match="3 of 21 rows malformed"):
            parse_detections(path)


class TestParseDetections:
    def test_groups_by_frame_in_order(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text(
            "2,1,0,0,10,10,0.9,1,1.0\n"
            "1,1,0,0,10,10,0.9,1,1.0\n"
            "1,2,20,0,10,10,0.8,1,1.0\n"
        )
        frames = parse_detections(str(path))
        assert [fd.frame for fd in frames] == [1, 2]
        assert len(frames[0]) == 2

    def test_embeddings_attach_by_frame_and_ordinal(self, tmp_path):
        det_path = tmp_path / "det.txt"
        det_path.write_text(
            "1,1,0,0,10,10,0.9,1,1.0\n"
            "1,2,20,0,10,10,0.8,1,1.0\n"
        )
        emb_path = str(tmp_path / "emb.bin")
        v0 = np.array([1.0, 0.0], dtype=np.float64)
        v1 = np.array([0.0, 1.0], dtype=np.float64)
        write_embeddings(emb_path, [(1, 0, v0), (1, 1, v1)], 2)
        frames = parse_detections(str(det_path), emb_path, 2)
        assert np.allclose(frames[0].embeddings[0], v0)
        assert np.allclose(frames[0].embeddings[1], v1)

    def test_min_score_drop_preserves_ordinals(self, tmp_path):
        """A filtered row still consumes its ordinal in the sidecar."""
        det_path = tmp_path / "det.txt"
        det_path.write_text(
            "1,1,0,0,10,10,0.05,1,1.0\n"
            "1,2,20,0,10,10,0.9,1,1.0\n"
        )
        emb_path = str(tmp_path / "emb.bin")
        v0 = np.array([1.0, 0.0], dtype=np.float64)
        v1 = np.array([0.0, 1.0], dtype=np.float64)
        write_embeddings(emb_path, [(1, 0, v0), (1, 1, v1)], 2)
        frames = parse_detections(str(det_path), emb_path, 2, min_score=0.1)
        assert len(frames[0]) == 1
        assert np.allclose(frames[0].embeddings[0], v1)

    def test_missing_embedding_is_fatal(self, tmp_path):
        det_path = tmp_path / "det.txt"
        det_path.write_text("1,1,0,0,10,10,0.9,1,1.0\n1,2,20,0,10,10,0.9,1,1.0\n")
        emb_path = str(tmp_path / "emb.bin")
        write_embeddings(emb_path, [(1, 0, np.array([1.0, 0.0]))], 2)
        with pytest.raises(FormatError):
            parse_detections(str(det_path), emb_path, 2)


class TestEmbeddingSidecar:
    def test_binary_round_trip_keeps_the_stored_float32(self, tmp_path, rng):
        path = str(tmp_path / "emb.bin")
        records = [(f, o, rng.normal(size=8) * 3.0)
                   for f in (1, 2) for o in (0, 1)]
        write_embeddings(path, records, 8)
        out = embedding_dict(parse_embeddings(path, 8))
        assert set(out) == {(1, 0), (1, 1), (2, 0), (2, 1)}
        for frame, ordinal, vec in records:
            got = out[(frame, ordinal)]
            # the float32 the file stores, not scaled: the tracker normalizes
            assert got.dtype == np.float32
            assert got.tobytes() == vec.astype(np.float32).tobytes()

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(struct.pack("<4sIII", b"DEMB", 99, 2, 0))
        with pytest.raises(FormatError):
            parse_embeddings(str(path))

    def test_dim_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "emb.bin")
        write_embeddings(path, [(1, 0, np.ones(4))], 4)
        with pytest.raises(FormatError):
            parse_embeddings(path, expected_dim=8)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        good = struct.pack("<4sIII", b"DEMB", 1, 2, 2)
        good += struct.pack("<II", 1, 0) + np.ones(2, dtype="<f4").tobytes()
        path.write_bytes(good)  # header claims 2 records, holds 1
        with pytest.raises(FormatError):
            parse_embeddings(str(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = str(tmp_path / "emb.bin")
        write_embeddings(path, [(1, 0, np.ones(2)), (1, 0, np.ones(2))], 2)
        with pytest.raises(FormatError):
            parse_embeddings(path)

    @pytest.mark.parametrize("vec,what", [
        ([np.nan, 1.0], "non-finite"), ([0.0, 0.0], "zero-length")])
    def test_bad_binary_vector_names_file_and_record(self, tmp_path, vec, what):
        path = str(tmp_path / "emb.bin")
        write_embeddings(path, [(1, 0, np.ones(2)), (2, 3, np.array(vec))], 2)
        with pytest.raises(FormatError,
                           match=rf"emb\.bin: embedding for frame 2 ordinal 3: .*{what}"):
            parse_embeddings(path)

    @pytest.mark.parametrize("vec,what", [
        ("nan,1.0", "non-finite"), ("0.0,0.0", "zero-length")])
    def test_bad_csv_vector_names_file_and_line(self, tmp_path, vec, what):
        path = tmp_path / "emb.csv"
        path.write_text(f"# frame,ordinal,v0,v1\n1,0,1.0,0.0\n2,3,{vec}\n")
        with pytest.raises(FormatError, match=rf"emb\.csv:3: .*{what}"):
            parse_embeddings(str(path))

    def test_csv_fallback(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("# frame,ordinal,v0,v1\n1,0,3.0,4.0\n1,1,1.0,0.0\n")
        out = embedding_dict(parse_embeddings(str(path)))
        assert out[(1, 0)].tolist() == [3.0, 4.0]
        assert out[(1, 1)].tolist() == [1.0, 0.0]
        assert out[(1, 0)].dtype == np.float64

    def test_csv_inconsistent_dim_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("1,0,1.0,0.0\n1,1,1.0,0.0,0.0\n")
        with pytest.raises(FormatError):
            parse_embeddings(str(path))

    def test_csv_duplicate_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("1,0,1.0,0.0\n1,0,0.0,1.0\n")
        with pytest.raises(FormatError):
            parse_embeddings(str(path))


class TestAffineSidecar:
    def test_absent_file_means_identity(self, tmp_path):
        assert parse_affines(str(tmp_path / "nope.csv")) == {}

    def test_round_trip_is_exact(self, tmp_path):
        path = str(tmp_path / "affines.csv")
        affines = {
            2: AffineTransform(np.array([[1.0, 0.0, 4.0], [0.0, 1.0, 1.0]])),
            3: AffineTransform(np.array([[0.99, -0.02, 0.1], [0.02, 0.99, -0.3]])),
        }
        write_affines(path, affines, comment="cam motion")
        out = parse_affines(path)
        assert set(out) == {2, 3}
        for frame, m in affines.items():
            assert np.array_equal(out[frame].m, m.m)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "affines.csv"
        path.write_text("2,1.0,0.0,4.0\n")
        with pytest.raises(FormatError):
            parse_affines(str(path))

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "affines.csv"
        path.write_text("2,one,0.0,4.0,0.0,1.0,1.0\n")
        with pytest.raises(FormatError):
            parse_affines(str(path))

    def test_singular_transform_fatal(self, tmp_path):
        path = tmp_path / "affines.csv"
        path.write_text("2,1.0,2.0,0.0,2.0,4.0,0.0\n")
        with pytest.raises(FormatError):
            parse_affines(str(path))

    @pytest.mark.parametrize("frame", ["0", "-3"])
    def test_frame_below_one_rejected(self, tmp_path, frame):
        path = tmp_path / "affines.csv"
        path.write_text(f"# cam\n2,1.0,0.0,4.0,0.0,1.0,1.0\n{frame},1.0,0.0,4.0,0.0,1.0,1.0\n")
        with pytest.raises(FormatError, match=f"affines.csv:3: frame {frame} is below 1"):
            parse_affines(str(path))

    def test_repeated_frame_rejected(self, tmp_path):
        path = tmp_path / "affines.csv"
        path.write_text("2,1.0,0.0,4.0,0.0,1.0,1.0\n3,1.0,0.0,1.0,0.0,1.0,1.0\n"
                        "2,1.0,0.0,5.0,0.0,1.0,1.0\n")
        with pytest.raises(FormatError, match="affines.csv:3: frame 2 appears twice"):
            parse_affines(str(path))


class TestWriteResults:
    def test_sorted_with_trailing_sentinels(self, tmp_path):
        path = tmp_path / "res.txt"
        records = [
            (2, 1, 0.5, 1.5, 10.0, 10.0, 0.9, 1),
            (1, 2, 5.0, 5.0, 8.0, 8.0, 0.8, 1),
            (1, 1, 0.0, 0.0, 10.0, 10.0, 0.7, 2),
        ]
        write_results(records, str(path))
        lines = path.read_text().splitlines()
        assert [ln.split(",")[:2] for ln in lines] == [
            ["1", "1"], ["1", "2"], ["2", "1"]]
        assert all(ln.endswith(",-1,-1") for ln in lines)

    def test_written_floats_parse_back_exactly(self, tmp_path):
        path = tmp_path / "res.txt"
        b = (1.0 / 3.0, 0.1, 10.7, 20.0000001)
        write_results([(1, 1, *b, 0.123456789, 1)], str(path))
        parts = path.read_text().strip().split(",")
        assert [float(v) for v in parts[2:6]] == list(b)
        assert float(parts[6]) == 0.123456789


class TestRunConfig:
    def test_defaults_match_tracker_config(self):
        from drone_assoc.core import TrackerConfig

        assert RunConfig().tracker_config() == TrackerConfig()
        assert RunConfig(w_a=0.25).tracker_config() == TrackerConfig(w_a=0.25)

    def test_dict_coercions(self):
        cfg = run_config_from_dict({
            "detections": "det.txt",
            "affines": "none",
            "output": "",
            "embedding_dim": "32",
            "seed": "7",
            "w_a": "0.25",
            "use_afs": "false",
            "use_dmp": "1",
        })
        assert cfg.detections == "det.txt"
        assert cfg.affines is None and cfg.output is None
        assert cfg.embedding_dim == 32 and cfg.seed == 7
        assert cfg.w_a == 0.25
        assert cfg.use_afs is False and cfg.use_dmp is True

    def test_native_bool_passes_through(self):
        assert run_config_from_dict({"use_afs": False}).use_afs is False

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError):
            run_config_from_dict({"speed": "11"})

    def test_bad_bool_rejected(self):
        with pytest.raises(FormatError) as exc:
            run_config_from_dict({"use_afs": "maybe"}, source="run.cfg")
        assert str(exc.value) == "run.cfg: bad value for 'use_afs': 'maybe': must be true/false"

    def test_bad_number_rejected(self):
        with pytest.raises(FormatError) as exc:
            run_config_from_dict({"w_a": "heavy"}, source="run.cfg")
        assert str(exc.value).startswith("run.cfg: bad value for 'w_a': 'heavy': ")

    def test_optional_alone_is_unwrapped(self):
        @dataclasses.dataclass
        class Settings:
            count: Optional[int] = None
            label: Optional[str] = None

        @dataclasses.dataclass
        class Pair:
            pair: tuple[float, float] = (0.0, 1.0)

        table = {int: int, str: str, float: float}
        assert field_codecs(Settings, table) == {"count": int, "label": str}
        # a generic other than Optional is not read as its first argument
        with pytest.raises(KeyError):
            field_codecs(Pair, table)

    @pytest.mark.parametrize("key, value, expected", [
        ("detections", "det.txt", "det.txt"),
        ("embeddings", "none", None),
        ("affines", "", None),
        ("output", None, None),
        ("affines", "None", None),  # the word means no file in any case
        ("embeddings", "NONE", None),
        ("output", "none.txt", "none.txt"),
        ("output", "nan", "nan"),
        ("use_afs", "true", True),
        ("use_afs", " False ", False),
        ("use_dmp", "0", False),
        ("use_dmp", True, True),
        ("use_afs", 0, False),
        ("embedding_dim", "32", 32),
        ("key_bank_capacity", 4, 4),
        ("confirm_hits", "2", 2),
        ("max_lost_age", "0", 0),
        ("theta_high", "0.7", 0.7),
        ("radius_R", "1e2", 100.0),
        ("iou_gate", 0, 0.0),
        ("seed", "0", 0),
        ("embedding_dim", "1", 1),
    ])
    def test_accepted_value(self, key, value, expected):
        got = getattr(run_config_from_dict({key: value}), key)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("key, value, error", [
        ("use_afs", "yes", FormatError),
        ("use_dmp", "", FormatError),
        ("use_afs", "nan", FormatError),
        ("embedding_dim", "none", FormatError),
        ("embedding_dim", "", FormatError),
        ("embedding_dim", "nan", FormatError),
        ("seed", "1.5", FormatError),
        ("confirm_hits", None, FormatError),
        ("max_lost_age", "nan", FormatError),
        ("theta_low", None, FormatError),
        ("theta_high", "nan", ConfigError),
        ("theta_low", "nan", ConfigError),
        ("alpha_f", "nan", ConfigError),
        ("iou_gate", "nan", ConfigError),
        ("key_bank_capacity", "0", ConfigError),
        ("seed", "-1", ConfigError),
        ("embedding_dim", "0", ConfigError),
        ("embedding_dim", -3, ConfigError),
    ])
    def test_rejected_value(self, key, value, error):
        with pytest.raises(error):
            run_config_from_dict({key: value})

    @pytest.mark.parametrize("name", ["w_a", "w_r", "radius_R", "novelty_threshold"])
    def test_nan_value_fails_tracker_config(self, name):
        from drone_assoc.core import ConfigError

        with pytest.raises(ConfigError):
            run_config_from_dict({name: "nan"})

    def test_key_value_file_errors(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta_high 0.7\n")
        with pytest.raises(FormatError):
            read_key_values(str(path))
        with pytest.raises(FormatError):
            read_key_values(str(tmp_path / "absent.cfg"))

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("w_a = 0.5\n# again\nw_r = 0.1\n w_a = 2\n")
        with pytest.raises(FormatError, match="run.cfg:4: key 'w_a' appears twice"):
            read_key_values(str(path))
