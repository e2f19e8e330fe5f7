import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import reference_decode_pgm, reference_read_frame_codes
from framewatch.data_io import (FRAME_SIDE, AnomalyLabel, Frame,
                                ScenarioDataset, Split, decode_pgm, encode_pgm,
                                as_intensities, list_frames, load_scenario,
                                parse_labels, read_frame_codes, resize_bilinear)
from framewatch.errors import (ContractViolationError, IOFailure, ParseError,
                               ProtocolViolationError)
from framewatch.rng import RngStream

HEADER = b"filename,label,anomaly_type,level,hazard,geometric,mission_relevant\n"
# The header encode_pgm writes for a 64x64 frame, and a payload of every code.
CANONICAL = b"P5\n64 64\n255\n"
PAYLOAD = bytes(range(256)) * (FRAME_SIDE * FRAME_SIDE // 256)


# ---------------------------------------------------------------------------
# PGM codec

def test_decode_single_black_pixel():
    pixels, w, h = decode_pgm(b"P5\n1 1\n255\n\x00")
    assert (w, h) == (1, 1)
    assert pixels[0, 0] == 0.0


def test_decode_single_white_pixel():
    pixels, _, _ = decode_pgm(b"P5\n1 1\n255\n\xff")
    assert pixels[0, 0] == 1.0


def test_decode_row_major_byte_table():
    pixels, w, h = decode_pgm(b"P5\n3 2\n255\n" + bytes(range(6)))
    assert (w, h) == (3, 2)
    expected = np.array([[0, 1, 2], [3, 4, 5]]) / 255.0
    assert np.array_equal(pixels, expected)


def test_decode_bad_magic():
    with pytest.raises(ParseError, match="byte 0"):
        decode_pgm(b"P6\n1 1\n255\n\x00")


def test_decode_bad_maxval():
    with pytest.raises(ParseError, match="maxval"):
        decode_pgm(b"P5\n1 1\n65535\n\x00\x00")


def test_decode_truncated_payload_names_offset():
    with pytest.raises(ParseError, match="byte"):
        decode_pgm(b"P5\n2 2\n255\n\x00\x01")


def test_decode_skips_comments():
    pixels, _, _ = decode_pgm(b"P5\n# a comment\n1 1\n255\n\x80")
    assert pixels[0, 0] == pytest.approx(128 / 255)


def test_pgm_round_trip_exact_for_quantized():
    rng = RngStream(1)
    raw = np.floor(rng.uniform(FRAME_SIDE * FRAME_SIDE) * 256).clip(0, 255)
    pixels = raw.reshape(FRAME_SIDE, FRAME_SIDE) / 255.0
    decoded, _, _ = decode_pgm(encode_pgm(pixels))
    assert np.array_equal(decoded, pixels)


def test_every_byte_value_reads_as_k_over_255(tmp_path):
    """Byte k is k/255 in float64, from decode_pgm and from the
    intensities of read_frame_codes for a 64x64 frame, whose codes are the
    payload bytes themselves."""
    path = tmp_path / "f.pgm"
    payload = bytes(range(256)) * 16
    path.write_bytes(b"P5\n64 64\n255\n" + payload)
    expected = np.tile(np.arange(256) / 255.0, 16).reshape(FRAME_SIDE, FRAME_SIDE)
    codes = read_frame_codes(path)
    assert codes.dtype == np.uint8 and codes.tobytes() == payload
    decoded, _, _ = decode_pgm(path.read_bytes())
    for pixels in (decoded, as_intensities(codes)):
        assert pixels.dtype == np.float64
        assert pixels.tobytes() == expected.tobytes()


def test_intensities_of_all_256_codes():
    """In float64 each code k gives decode_pgm's k/255; in float32 the
    float32 cast of that value.  Multiplying by 1/255 is no substitute: it
    rounds 24 of the 256 codes differently."""
    codes = np.arange(256, dtype=np.uint8)
    decoded, _, _ = decode_pgm(b"P5\n256 1\n255\n" + codes.tobytes())
    exact = as_intensities(codes)
    assert exact.dtype == np.float64
    assert exact.tobytes() == decoded[0].tobytes()
    single = as_intensities(codes, np.float32)
    assert single.dtype == np.float32
    assert single.tobytes() == exact.astype(np.float32).tobytes()
    assert int(np.count_nonzero(codes * (1.0 / 255.0) != exact)) == 24


WHITESPACE = [bytes([c]) for c in b" \t\n\r\x0b\x0c"]  # what bytes.isspace accepts
NON_DIGIT_TOKENS = [b"x", b"1a", b"-1", b"+2", b"1#2", b"#", b"\xb2", b"\xff\x00"]


@st.composite
def pgm_inputs(draw):
    """A P5 file built piece by piece.  Gaps hold the six whitespace bytes
    and comments; each fault is drawn about one time in ten: a gap that is
    empty or opens with a comment directly after a token, a token that is
    not digits, zero dimensions, a maxval other than 255, a payload short or
    long by a few bytes, a comment running to the end of the file, a cut at
    any byte.  Numbers may carry leading zeros."""
    def rarely():
        return draw(st.integers(0, 9)) == 0

    whitespace = st.sampled_from(WHITESPACE)
    comment = st.binary(max_size=4).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")

    def gap():
        if rarely():
            return b"" if draw(st.booleans()) else draw(comment)
        return draw(whitespace) + b"".join(draw(st.lists(st.one_of(whitespace, comment),
                                                          max_size=2)))

    def number(value):
        return b"0" * draw(st.integers(0, 2)) + str(value).encode("ascii")

    width, height = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    maxval = draw(st.sampled_from([0, 254, 65535])) if rarely() else 255
    tokens = [number(width), number(height), number(maxval)]
    if rarely():
        tokens[draw(st.integers(0, 2))] = draw(st.sampled_from(NON_DIGIT_TOKENS))
    data = draw(st.sampled_from([b"P6", b"P", b"p5"])) if rarely() else b"P5"
    for token in tokens:
        data += gap() + token
    if rarely():
        data += b"#" + draw(st.binary(max_size=4)).replace(b"\n", b"")
    else:
        n = width * height + (draw(st.integers(-2, 2)) if rarely() else 0)
        data += draw(whitespace) + draw(st.binary(min_size=max(n, 0), max_size=max(n, 0)))
    if rarely():
        data = data[:draw(st.integers(0, len(data)))]
    return data


def _decoded(decode, data):
    """(dtype, pixel bytes, width, height) of a decoded file, or the
    ParseError message; any other exception propagates."""
    try:
        pixels, width, height = decode(data)
    except ParseError as exc:
        return str(exc)
    return pixels.dtype.str, pixels.shape, pixels.tobytes(), width, height


@settings(max_examples=600, derandomize=True, deadline=None)
@given(pgm_inputs())
@example(b"P5\x0b2\x0c1\r#\xff\n0255\t\x80\x81")
@example(b"P5 1 1#no gap\n255 \x00")
@example(b"P5 1 1 255#runs to end of file")
@example(b"P5 1 1 # runs to end of file")
@example(b"P5 0003 02 255\n" + bytes(6) + b"extra")
@example(b"P5 2 2 255\n\x00")
@example(b"P5 2 2 255")
@example(CANONICAL + PAYLOAD)
@example(CANONICAL + PAYLOAD[:-1])
@example(CANONICAL + PAYLOAD + b"\x00")
@example(b"P5\n# 64 64 255\n64 64\n255\n" + PAYLOAD)
@example(CANONICAL[:-1] + b"\r" + PAYLOAD)
def test_decode_matches_byte_loop_oracle(data):
    """The header parser, its canonical 64x64 short path included, and the
    byte loop it replaced agree on every input: the same pixels, width and
    height, or the same message."""
    assert _decoded(decode_pgm, data) == _decoded(reference_decode_pgm, data)


# ---------------------------------------------------------------------------
# bilinear resize

def test_resize_identity():
    rng = RngStream(2)
    img = rng.uniform(FRAME_SIDE * FRAME_SIDE).reshape(FRAME_SIDE, FRAME_SIDE)
    assert np.array_equal(resize_bilinear(img), img)


def test_resize_constant_preserved():
    out = resize_bilinear(np.full((2, 2), 0.7))
    assert np.allclose(out, 0.7)


def test_resize_upscale_matches_hand_oracle():
    # 2x1 image (0, 1) to 4x1 with pixel-center alignment and edge clamp:
    # src_x = (j + 0.5) / 2 - 0.5 -> (-0.25, 0.25, 0.75, 1.25), clamped
    out = resize_bilinear(np.array([[0.0, 1.0]]), out_h=1, out_w=4)
    assert np.allclose(out, [[0.0, 0.25, 0.75, 1.0]])


def test_resize_rejects_empty():
    with pytest.raises(ContractViolationError):
        resize_bilinear(np.empty((0, 3)))


def test_resize_output_in_unit_interval():
    rng = RngStream(3)
    img = rng.uniform(37 * 91).reshape(37, 91)
    out = resize_bilinear(img)
    assert out.shape == (FRAME_SIDE, FRAME_SIDE)
    assert out.min() >= 0.0 and out.max() <= 1.0


# ---------------------------------------------------------------------------
# labels CSV

def test_parse_anomalous_row():
    data = HEADER + b"img_0004.pgm,anomalous,tape,semantic,yes,yes,\n"
    labels = parse_labels(data)
    assert labels["img_0004.pgm"] == AnomalyLabel("tape", "semantic", "yes",
                                                  "yes", "unspecified")


def test_parse_normal_row():
    labels = parse_labels(HEADER + b"img_0001.pgm,normal,,,,,\n")
    assert labels["img_0001.pgm"] is None


def test_parse_drops_one_leading_byte_order_mark():
    """A labels.csv saved with a UTF-8 byte order mark parses as without
    it; a second mark is part of the header and rejected."""
    data = HEADER + b"img_0004.pgm,anomalous,tape,semantic,yes,yes,\n"
    assert parse_labels(b"\xef\xbb\xbf" + data) == parse_labels(data)
    with pytest.raises(ParseError, match="header"):
        parse_labels(b"\xef\xbb\xbf" * 2 + data)


def test_parse_bad_level_reports_line():
    data = HEADER + b"a.pgm,normal,,,,,\nb.pgm,anomalous,dust,medium,no,no,\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_labels(data)


@pytest.mark.parametrize("row", [
    b"b.pgm,anomalous,dust,sensory,maybe,no,",
    b"b.pgm,anomalous,dust,sensory,no,1,",
    b"b.pgm,anomalous,dust,sensory,no,no,often",
])
def test_parse_bad_axis_value_reports_line(row):
    """The other axes, like `level` above: AnomalyLabel checks the value
    and parse_labels reports its error as a ParseError naming the line."""
    data = HEADER + b"a.pgm,normal,,,,,\n" + row + b"\n"
    with pytest.raises(ParseError, match="labels.csv line 3: invalid"):
        parse_labels(data)


@pytest.mark.parametrize("axes, first_bad", [
    (("medium", "maybe", "no", "often"), "level 'medium'"),
    (("sensory", "maybe", "1", "unspecified"), "hazard 'maybe'"),
    (("sensory", "no", "1", "often"), "geometric '1'"),
])
def test_label_with_two_bad_axes_reports_the_first_column(axes, first_bad):
    with pytest.raises(ContractViolationError, match=f"^invalid {first_bad}$"):
        AnomalyLabel("dust", *axes)


def test_parse_duplicate_filename():
    data = HEADER + b"a.pgm,normal,,,,,\na.pgm,normal,,,,,\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_labels(data)


def test_parse_rejects_anomaly_type_with_two_axis_sets():
    data = (HEADER + b"a.pgm,anomalous,tape,semantic,yes,yes,\n"
            b"b.pgm,normal,,,,,\nc.pgm,anomalous,tape,sensory,no,no,\n")
    with pytest.raises(ParseError, match="lines 2 and 4: anomaly type 'tape'"):
        parse_labels(data)


def test_parse_accepts_anomaly_type_rows_that_agree():
    data = (HEADER + b"a.pgm,anomalous,tape,semantic,yes,yes,\n"
            b"b.pgm,anomalous,tape,semantic,yes,yes,unspecified\n")
    labels = parse_labels(data)
    assert labels["a.pgm"] == labels["b.pgm"]


def test_parse_normal_with_axis_columns_rejected():
    data = HEADER + b"a.pgm,normal,tape,,,,\n"
    with pytest.raises(ParseError):
        parse_labels(data)


def test_parse_wrong_header():
    with pytest.raises(ParseError, match="header"):
        parse_labels(b"file,label\na,normal\n")


# ---------------------------------------------------------------------------
# scenario loading

def _write_frame(path, value):
    path.write_bytes(encode_pgm(np.full((FRAME_SIDE, FRAME_SIDE), value)))


def _make_fixture(root, anomaly_in_train=False):
    for split in ("train", "val", "test"):
        (root / split).mkdir(parents=True)
    _write_frame(root / "train" / "train_00000.pgm", 0.4)
    _write_frame(root / "train" / "train_00001.pgm", 0.5)
    _write_frame(root / "val" / "val_00000.pgm", 0.45)
    _write_frame(root / "test" / "test_00000.pgm", 0.5)
    _write_frame(root / "test" / "test_00001.pgm", 0.9)
    rows = [HEADER.decode().strip(),
            "test_00000.pgm,normal,,,,,",
            "test_00001.pgm,anomalous,tape,semantic,yes,yes,"]
    if anomaly_in_train:
        rows.append("train_00000.pgm,anomalous,tape,semantic,yes,yes,")
    (root / "labels.csv").write_text("\n".join(rows) + "\n")


def test_load_minimal_fixture(tmp_path):
    _make_fixture(tmp_path)
    ds = load_scenario(tmp_path)
    assert len(ds.train) == 2 and len(ds.val) == 1 and len(ds.test) == 2
    assert ds.test.labels[1].anomaly_type == "tape"
    assert ds.taxonomy.keys() == {"tape"}
    # sorted by timestamp index
    assert ds.train.timestamps == (0, 1)


def test_load_rejects_label_row_naming_no_file(tmp_path):
    _make_fixture(tmp_path)
    with (tmp_path / "labels.csv").open("a") as f:
        f.write("test_00077.pgm,anomalous,glare,sensory,no,no,\n")
    with pytest.raises(IOFailure, match="test_00077.pgm"):
        load_scenario(tmp_path)


def test_load_accepts_normal_label_rows_for_train_and_val_files(tmp_path):
    _make_fixture(tmp_path)
    with (tmp_path / "labels.csv").open("a") as f:
        f.write("train_00001.pgm,normal,,,,,\nval_00000.pgm,normal,,,,,\n")
    assert len(load_scenario(tmp_path).train) == 2


def test_label_row_names_the_test_file_of_its_name(tmp_path):
    """With frame_0.pgm to frame_2.pgm in every split, labels.csv's rows
    label the test files: test/frame_2.pgm is anomalous, and train/ and
    val/ files of the same names stay normal."""
    for split in ("train", "val", "test"):
        (tmp_path / split).mkdir()
        for i in range(3):
            _write_frame(tmp_path / split / f"frame_{i}.pgm", 0.2 + 0.1 * i)
    rows = [HEADER.decode().strip(), "frame_0.pgm,normal,,,,,",
            "frame_1.pgm,normal,,,,,", "frame_2.pgm,anomalous,blob,semantic,yes,yes,"]
    (tmp_path / "labels.csv").write_text("\n".join(rows) + "\n")
    ds = load_scenario(tmp_path)
    assert ds.train.labels == ds.val.labels == (None, None, None)
    assert ds.test.labels[:2] == (None, None)
    assert ds.test.labels[2].anomaly_type == "blob"
    assert ds.taxonomy.keys() == {"blob"}


def test_load_rejects_anomaly_in_train(tmp_path):
    _make_fixture(tmp_path, anomaly_in_train=True)
    with pytest.raises(ProtocolViolationError, match="train"):
        load_scenario(tmp_path)


def test_load_rejects_empty_val_split(tmp_path):
    _make_fixture(tmp_path)
    (tmp_path / "val" / "val_00000.pgm").unlink()
    with pytest.raises(ProtocolViolationError, match="val split is empty"):
        load_scenario(tmp_path)


def test_load_accepts_empty_train_split(tmp_path):
    """A scenario built only for evaluation has no train frames; training
    rejects it, loading does not."""
    _make_fixture(tmp_path)
    for path in (tmp_path / "train").glob("*.pgm"):
        path.unlink()
    train = load_scenario(tmp_path).train
    assert len(train) == 0 and train.pixels.shape == (0, FRAME_SIDE, FRAME_SIDE)


def test_load_missing_label_entry(tmp_path):
    _make_fixture(tmp_path)
    _write_frame(tmp_path / "test" / "test_00002.pgm", 0.2)
    with pytest.raises(IOFailure, match="test_00002.pgm"):
        load_scenario(tmp_path)


def _write_pgm(path, height, width, seed):
    raw = np.floor(RngStream(seed).uniform(height * width) * 256).clip(0, 255)
    path.write_bytes(encode_pgm(raw.reshape(height, width) / 255.0))


def test_list_frames_orders_by_frame_number_then_name(tmp_path):
    """Frame numbers order frames whatever their padding, names break ties,
    and only `.pgm` entries are listed, with their paths."""
    names = ["frame_1000000.pgm", "frame_999999.pgm", "frame_10.pgm", "frame_9.pgm",
             "b_9.pgm", "c.pgm", "notes.txt"]
    for name in names:
        (tmp_path / name).write_bytes(b"")
    assert list_frames(tmp_path) == [
        (t, name, str(tmp_path / name)) for t, name in
        [(0, "c.pgm"), (9, "b_9.pgm"), (9, "frame_9.pgm"), (10, "frame_10.pgm"),
         (999999, "frame_999999.pgm"), (1000000, "frame_1000000.pgm")]]


def test_load_mixed_sizes_matches_read_frame_codes(tmp_path):
    """A split of canonical 64x64 frames, 64x64 frames with other headers
    and frames of other sizes loads in (timestamp, name) order as rows of
    one uint8 array, each row equal to read_frame_codes of its file and to
    the buffered reference reader's codes, with its name, timestamp and
    label.  A truncated file fails with the reference's message behind its
    `<split>/<file>:` prefix."""
    _make_fixture(tmp_path)
    sizes = {"test_00001.pgm": (48, 80), "test_00002.pgm": (1, 1),
             "b_7.pgm": (FRAME_SIDE, FRAME_SIDE), "a_7.pgm": (3, 2),
             "c.pgm": (FRAME_SIDE, FRAME_SIDE), "test_00010.pgm": (80, 48)}
    for seed, (name, (height, width)) in enumerate(sizes.items()):
        _write_pgm(tmp_path / "test" / name, height, width, seed)
    headers = {"test_00003.pgm": b"P5\n# by hand\n64 64\n255\n",
               "test_00004.pgm": b"P5 64 64 255\r",
               "test_00005.pgm": CANONICAL}
    for name, header in headers.items():
        (tmp_path / "test" / name).write_bytes(header + PAYLOAD[::-1] + b"tail")
    (tmp_path / "test" / "notes.txt").write_text("not a frame\n")
    with (tmp_path / "labels.csv").open("a") as f:
        for name in [*sizes, *headers]:
            if name != "test_00001.pgm":
                f.write(f"{name},normal,,,,,\n")
    labels = parse_labels((tmp_path / "labels.csv").read_bytes())

    test = load_scenario(tmp_path).test
    order = ["c.pgm", "test_00000.pgm", "test_00001.pgm", "test_00002.pgm",
             "test_00003.pgm", "test_00004.pgm", "test_00005.pgm",
             "a_7.pgm", "b_7.pgm", "test_00010.pgm"]
    assert test.source_ids == tuple(f"test/{name}" for name in order)
    assert test.timestamps == (0, 0, 1, 2, 3, 4, 5, 7, 7, 10)
    assert test.labels == tuple(labels[name] for name in order)
    assert test.pixels.shape == (len(order), FRAME_SIDE, FRAME_SIDE)
    assert test.pixels.dtype == np.uint8
    for row, name in zip(test.pixels, order):
        path = tmp_path / "test" / name
        assert row.tobytes() == read_frame_codes(path).tobytes()
        assert row.tobytes() == reference_read_frame_codes(path).tobytes()

    for name in ("b_7.pgm", "test_00003.pgm", "test_00010.pgm"):
        path = tmp_path / "test" / name
        whole = path.read_bytes()
        path.write_bytes(whole[:-5])
        with pytest.raises(ParseError) as want:
            reference_read_frame_codes(path)
        with pytest.raises(ParseError) as got:
            load_scenario(tmp_path)
        assert str(got.value) == f"test/{name}: {want.value}"
        path.write_bytes(whole)


def test_a_resized_frame_rounds_to_the_nearest_code(tmp_path):
    """A 48x48 frame loads as the codes read_frame_codes gives, and those
    are rint(255 * clip(resize_bilinear(decode))), one rule for every
    reader."""
    _make_fixture(tmp_path)
    path = tmp_path / "val" / "val_00000.pgm"
    _write_pgm(path, 48, 48, 9)
    decoded, _, _ = decode_pgm(path.read_bytes())
    expected = np.rint(255 * np.clip(resize_bilinear(decoded), 0.0, 1.0))
    codes = read_frame_codes(path)
    assert codes.dtype == np.uint8
    assert np.array_equal(codes, expected)
    assert np.array_equal(load_scenario(tmp_path).val.pixels[0], codes)


def test_load_error_names_the_frame_file(tmp_path):
    _make_fixture(tmp_path)
    path = tmp_path / "val" / "val_00000.pgm"
    path.write_bytes(path.read_bytes()[:15])
    with pytest.raises(ParseError) as exc:
        load_scenario(tmp_path)
    assert str(exc.value) == ("val/val_00000.pgm: truncated PGM payload at "
                              "byte 15: expected 4096 pixel bytes, got 2")


def test_load_missing_dir(tmp_path):
    with pytest.raises(IOFailure):
        load_scenario(tmp_path / "nope")


def test_load_eight_anomaly_types(tmp_path):
    # corridor-style fixture: 8 distinct anomaly types in the taxonomy
    for split in ("train", "val", "test"):
        (tmp_path / split).mkdir(parents=True)
    _write_frame(tmp_path / "train" / "train_00000.pgm", 0.4)
    _write_frame(tmp_path / "val" / "val_00000.pgm", 0.45)
    rows = [HEADER.decode().strip()]
    _write_frame(tmp_path / "test" / "test_00000.pgm", 0.5)
    rows.append("test_00000.pgm,normal,,,,,")
    for i in range(8):
        name = f"test_{i + 1:05d}.pgm"
        _write_frame(tmp_path / "test" / name, 0.9)
        rows.append(f"{name},anomalous,type{i},sensory,no,no,")
    (tmp_path / "labels.csv").write_text("\n".join(rows) + "\n")
    ds = load_scenario(tmp_path)
    assert len(ds.taxonomy) == 8


def _split(*frames):
    """A split of constant frames, each given as (pixel value, label)."""
    codes = np.rint(255 * np.array([value for value, _ in frames])).astype(np.uint8)
    pixels = np.empty((len(frames), FRAME_SIDE, FRAME_SIDE), np.uint8)
    pixels[...] = codes[:, None, None]
    return Split(pixels, tuple(f"s/{i}" for i in range(len(frames))),
                 tuple(range(len(frames))), tuple(label for _, label in frames))


TAPE = AnomalyLabel("tape", "semantic", "yes", "yes")
GLARE = AnomalyLabel("glare", "sensory", "no", "no")


def test_dataset_built_directly_checks_the_split_protocol():
    test = _split((0.5, None), (0.9, TAPE), (0.1, GLARE), (0.8, TAPE))
    with pytest.raises(ProtocolViolationError,
                       match="val split contains anomalous frame 's/1'"):
        ScenarioDataset(train=_split((0.4, None)),
                        val=_split((0.45, None), (0.9, TAPE)), test=test)
    ds = ScenarioDataset(train=_split(), val=_split((0.45, None)), test=test)
    assert ds.taxonomy == {"tape": TAPE, "glare": GLARE}


@pytest.mark.parametrize("test_labels, message", [
    ([None, None], "no anomalous frame"),
    ([TAPE], "no normal frame"),
    ([], "no normal frame"),
])
def test_dataset_test_split_needs_both_classes(test_labels, message):
    with pytest.raises(ProtocolViolationError, match=message):
        ScenarioDataset(train=_split(), val=_split((0.45, None)),
                        test=_split(*[(0.5, label) for label in test_labels]))


def test_frame_rejects_out_of_range_pixels():
    with pytest.raises(ContractViolationError):
        Frame(np.full((FRAME_SIDE, FRAME_SIDE), 1.5))


@pytest.mark.parametrize("nan_pixels", [(slice(None), slice(None)), (3, 5)],
                         ids=["all", "one"])
def test_frame_rejects_nan_pixels(nan_pixels):
    pixels = np.full((FRAME_SIDE, FRAME_SIDE), 0.5)
    pixels[nan_pixels] = np.nan
    with pytest.raises(ContractViolationError):
        Frame(pixels)


def _codes(*shape):
    return np.full(shape, 128, np.uint8)


@pytest.mark.parametrize("pixels, source_ids, timestamps, labels, message", [
    (_codes(2, FRAME_SIDE, FRAME_SIDE), ("a",), (0,), (None,), "pixels shape"),
    (_codes(1, FRAME_SIDE, 3), ("a",), (0,), (None,), "pixels shape"),
    (_codes(1, FRAME_SIDE, FRAME_SIDE), ("a",), (0, 1), (None,), "2 timestamps"),
    (_codes(1, FRAME_SIDE, FRAME_SIDE), ("a",), (0,), (), "0 labels"),
    (np.full((1, FRAME_SIDE, FRAME_SIDE), 0.5), ("a",), (0,), (None,),
     "uint8 codes, got float64"),
], ids=["rows", "side", "timestamps", "labels", "float_pixels"])
def test_split_rejects_a_malformed_record(pixels, source_ids, timestamps, labels,
                                          message):
    with pytest.raises(ContractViolationError, match=message):
        Split(pixels, source_ids, timestamps, labels)


def test_split_is_its_pixel_array(tmp_path):
    """len() counts frames, np.asarray gives the codes without a copy, an
    integer dtype or copy request is honoured, a float dtype is refused
    so the codes are never read as intensities, and a loaded split's
    pixels cannot be written."""
    split = _split((0.25, None), (0.75, TAPE))
    assert len(split) == 2
    assert np.asarray(split) is split.pixels
    assert np.array(split).base is None
    assert np.array_equal(np.asarray(split, dtype=np.int16), split.pixels)
    with pytest.raises(ValueError):
        np.asarray(split, dtype=np.int16, copy=False)
    for dtype in (np.float64, np.float32):
        with pytest.raises(ContractViolationError, match="intensities"):
            np.asarray(split, dtype=dtype)
    _make_fixture(tmp_path)
    val = load_scenario(tmp_path).val
    with pytest.raises(ValueError):
        val.pixels[0, 0, 0] = 7
