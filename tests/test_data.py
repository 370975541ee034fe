import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from promptsurv import data
from promptsurv.data import (
    PATCH,
    REGION,
    FeatureBag,
    PatientRecord,
    PromptSet,
    SynthSpec,
    discretize_times,
    generate_synthetic,
    load_cohort,
    read_matrix,
    read_parent_map,
    top_count,
    write_cohort,
    write_matrix,
)
from promptsurv.errors import ConfigError, DataValidationError


def small_spec(**overrides):
    base = dict(n_patients=12, n_regions=4, patches_per_region=6, d=16,
                n_prompts_patch=4, n_prompts_region=4, seed=7)
    base.update(overrides)
    return SynthSpec(**base)


def make_record(pid, censor, time, time_bin=None):
    tokens = np.full((2, 3), 0.5)
    return PatientRecord(
        patient_id=pid, censor=censor, time=time, time_bin=time_bin,
        patch_bag=FeatureBag(PATCH, tokens, [0, 1]),
        region_bag=FeatureBag(REGION, np.full((2, 3), 0.25)),
    )


class TestSynthGenerator:
    def test_deterministic_under_seed(self):
        rec_a, prompts_a, truth_a = generate_synthetic(small_spec())
        rec_b, prompts_b, truth_b = generate_synthetic(small_spec())
        assert len(rec_a) == len(rec_b) == 12
        for a, b in zip(rec_a, rec_b):
            assert a.patch_bag.tokens.tobytes() == b.patch_bag.tokens.tobytes()
            assert a.region_bag.tokens.tobytes() == b.region_bag.tokens.tobytes()
            assert a.time == b.time and a.censor == b.censor
        assert prompts_a[PATCH].prompts.tobytes() == prompts_b[PATCH].prompts.tobytes()
        assert truth_a.risks.tobytes() == truth_b.risks.tobytes()

    def test_noiseless_uncensored_rank_correlation_is_minus_one(self):
        records, _, truth = generate_synthetic(
            small_spec(noise_sigma=0.0, censor_rate=0.0))
        times = np.array([r.time for r in records])
        rank_t = np.argsort(np.argsort(times))
        rank_rho = np.argsort(np.argsort(truth.risks))
        corr = np.corrcoef(rank_t, rank_rho)[0, 1]
        assert corr == pytest.approx(-1.0)

    def test_uncensored_times_strictly_decrease_in_risk(self):
        records, _, truth = generate_synthetic(small_spec(censor_rate=0.0))
        order = np.argsort(truth.risks)
        times = np.array([records[i].time for i in order])
        assert np.all(np.diff(times) < 0.0)

    def test_region_tokens_are_child_mean_plus_component(self):
        spec = small_spec()
        records, _, truth = generate_synthetic(spec)
        for i, rec in enumerate(records):
            child_means = rec.patch_bag.tokens.reshape(
                spec.n_regions, spec.patches_per_region, spec.d).mean(axis=1)
            expected = child_means + truth.region_components[i]
            assert np.array_equal(rec.region_bag.tokens, expected)

    def test_signal_mask_sizes_follow_selection_rule(self):
        spec = small_spec(signal_fraction=0.6)
        _, _, truth = generate_synthetic(spec)
        assert truth.patch_signal.sum(axis=1).tolist() == \
            [top_count(spec.m_patches, 0.6)] * spec.n_patients
        assert truth.region_signal.sum(axis=1).tolist() == \
            [top_count(spec.n_regions, 0.6)] * spec.n_patients

    def test_parent_map_is_block_structured(self):
        records, _, _ = generate_synthetic(small_spec())
        parents = records[0].patch_bag.parent_region
        assert np.array_equal(parents, np.repeat(np.arange(4), 6))

    def test_censoring_rate_and_time_bounds(self):
        records, _, truth = generate_synthetic(
            small_spec(n_patients=400, censor_rate=0.4))
        censored = np.array([r.censor for r in records], dtype=bool)
        assert 0.3 < censored.mean() < 0.5
        for rec, t_event in zip(records, truth.event_times):
            assert 0.0 < rec.time <= t_event
            if rec.censor == 0:
                assert rec.time == t_event

    def test_prompt_dimension_floor_enforced(self):
        with pytest.raises(ConfigError, match="d="):
            small_spec(d=5)


class TestCohortIO:
    def test_matrix_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(7, 5))
        path = tmp_path / "m.mat"
        write_matrix(path, mat)
        back = read_matrix(path)
        assert back.tobytes() == mat.tobytes()

    def test_cohort_roundtrip_bit_exact(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=3))
        manifest = write_cohort(records, prompts, tmp_path / "cohort")
        loaded, loaded_prompts = load_cohort(manifest)
        assert len(loaded) == 3
        for orig, back in zip(records, loaded):
            assert back.patient_id == orig.patient_id
            assert back.censor == orig.censor
            assert back.time == orig.time
            assert back.patch_bag.tokens.tobytes() == orig.patch_bag.tokens.tobytes()
            assert back.region_bag.tokens.tobytes() == orig.region_bag.tokens.tobytes()
            assert np.array_equal(back.patch_bag.parent_region,
                                  orig.patch_bag.parent_region)
        for level in (PATCH, REGION):
            assert loaded_prompts[level].prompts.tobytes() == \
                prompts[level].prompts.tobytes()

    def test_happy_path_two_patients(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=2))
        manifest = write_cohort(records, prompts, tmp_path)
        loaded, _ = load_cohort(manifest)
        assert [r.patient_id for r in loaded] == ["p0000", "p0001"]

    def test_dimension_mismatch_names_both_files(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=1))
        manifest = write_cohort(records, prompts, tmp_path)
        # rewrite the patch prompt file with a different dimension
        write_matrix(tmp_path / "prompts_patch.mat", np.ones((4, 32)))
        with pytest.raises(DataValidationError) as err:
            load_cohort(manifest)
        assert "prompts_patch.mat" in str(err.value)
        assert "d=32" in str(err.value) and "d=16" in str(err.value)

    def test_missing_embedding_file(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=1))
        manifest = write_cohort(records, prompts, tmp_path)
        (tmp_path / "p0000_patch.mat").unlink()
        with pytest.raises(DataValidationError, match="missing"):
            load_cohort(manifest)

    def test_parent_out_of_range(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=1))
        manifest = write_cohort(records, prompts, tmp_path)
        with open(tmp_path / "p0000_parents.txt", "w") as fh:
            fh.write("99\n" * 24)
        with pytest.raises(DataValidationError, match="out of range"):
            load_cohort(manifest)

    @pytest.mark.parametrize("name, shape", [("*.mat", "x0"), ("p0000_region.mat", "0x")])
    def test_matrix_without_entries_rejected(self, tmp_path, name, shape):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=1))
        manifest = write_cohort(records, prompts, tmp_path)
        # with every matrix emptied alike, no dimension check tells them apart
        for path in tmp_path.glob(name):
            rows, cols = read_matrix(path).shape
            write_matrix(path, np.zeros((rows, 0) if shape == "x0" else (0, cols)))
        first = "prompts_patch.mat" if name == "*.mat" else name
        with pytest.raises(DataValidationError, match=rf"empty \d+x\d+ matrix in .*{first}"):
            load_cohort(manifest)

    def test_nonfinite_entry_rejected(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=1))
        manifest = write_cohort(records, prompts, tmp_path)
        bad = records[0].patch_bag.tokens.copy()
        bad[0, 0] = np.nan
        write_matrix(tmp_path / "p0000_patch.mat", bad)
        with pytest.raises(DataValidationError, match="non-finite"):
            load_cohort(manifest)

    def test_duplicate_patient_id_rejected(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=3))
        manifest = write_cohort(records, prompts, tmp_path)
        raw = json.loads(manifest.read_text())
        raw["patients"][2]["id"] = "p0000"
        manifest.write_text(json.dumps(raw))
        with pytest.raises(DataValidationError, match="duplicate patient id 'p0000'"):
            load_cohort(manifest)

    def test_prompts_optional_in_manifest(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=2))
        manifest = write_cohort(records, prompts, tmp_path)
        raw = json.loads(manifest.read_text())
        raw["prompts"] = {}
        manifest.write_text(json.dumps(raw))
        loaded, loaded_prompts = load_cohort(manifest)
        assert len(loaded) == 2 and loaded_prompts == {}

    def test_each_file_is_read_once_through_the_public_readers(self, tmp_path, monkeypatch):
        # the offline twin of the benchmark's traced byte count, which wraps
        # these two readers: a load that reads around them goes unmeasured
        n = 5
        records, prompts, _ = generate_synthetic(small_spec(n_patients=n))
        manifest = write_cohort(records, prompts, tmp_path)
        calls = {"read_matrix": [], "read_parent_map": []}
        for name, paths in calls.items():
            def logged(path, reader=getattr(data, name), paths=paths):
                paths.append(Path(path).resolve())
                return reader(path)
            monkeypatch.setattr(data, name, logged)
        load_cohort(manifest)
        matrices, parent_maps = calls["read_matrix"], calls["read_parent_map"]
        assert len(matrices) == 2 * n + 2 and len(parent_maps) == n
        assert set(matrices) == {
            (tmp_path / name).resolve() for name in
            ["prompts_patch.mat", "prompts_region.mat"]
            + [f"p{i:04d}_{level}.mat" for i in range(n) for level in (PATCH, REGION)]}
        assert set(parent_maps) == {(tmp_path / f"p{i:04d}_parents.txt").resolve()
                                    for i in range(n)}

    def test_a_patch_file_keeps_the_shape_it_was_loaded_with(self, tmp_path):
        # a rewrite that keeps the file's size and modification time passes
        # the stamp check; the re-read still refuses a shape that the parent
        # map and the other files were not checked against
        records, prompts, _ = generate_synthetic(small_spec(n_patients=2))
        loaded, _ = load_cohort(write_cohort(records, prompts, tmp_path))
        path = tmp_path / "p0001_patch.mat"
        status = path.stat()
        write_matrix(path, records[1].patch_bag.tokens.T)
        os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns))
        with pytest.raises(DataValidationError,
                           match=re.escape(f"{path} is 16x24, but was 24x16")):
            loaded[1].patch_bag.tokens

    def test_cohort_loads_back_as_the_written_arrays(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=4))
        loaded, loaded_prompts = load_cohort(write_cohort(records, prompts, tmp_path))

        def same(got, want):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

        assert list(loaded_prompts) == list(prompts)
        for level, pset in prompts.items():
            same(loaded_prompts[level].prompts, pset.prompts)
        assert len(loaded) == len(records)
        for back, orig in zip(loaded, records):
            same(back.patch_bag.tokens, orig.patch_bag.tokens)
            same(back.region_bag.tokens, orig.region_bag.tokens)
            same(back.patch_bag.parent_region, orig.patch_bag.parent_region)

    def test_loaded_arrays_are_typed_owned_and_writeable(self, tmp_path):
        # training reads the token matrices in place: each must be its own
        # aligned, writeable, C-ordered float64 block
        records, prompts, _ = generate_synthetic(small_spec(n_patients=6))
        loaded, loaded_prompts = load_cohort(write_cohort(records, prompts, tmp_path))
        discretize_times(loaded, 2)
        tokens = [pset.prompts for pset in loaded_prompts.values()]
        parents = []
        for rec in loaded:
            assert type(rec.time_bin) is int
            tokens += [rec.patch_bag.tokens, rec.region_bag.tokens]
            parents.append(rec.patch_bag.parent_region)
        for arr in tokens:
            assert arr.dtype == np.float64
            assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable
        assert all(arr.dtype == np.int64 for arr in parents)
        arrays = tokens + parents
        for i, arr in enumerate(arrays):
            assert not any(np.may_share_memory(arr, other) for other in arrays[i + 1:])


def read_parent_map_per_line(path) -> np.ndarray:
    """The reference parent-map reader, line by line: a line stripped of
    blanks is empty or 1 to 18 ASCII digits."""
    values = []
    for line in path.read_bytes().replace(b"\r", b"\n").split(b"\n"):
        line = line.strip(b" \t\v\f")
        if line:
            if not (line.isdigit() and len(line) <= 18):
                raise ValueError(f"not an index: {line!r}")
            values.append(int(line))
    return np.array(values, dtype=np.int64)


def read_like_the_per_line_reader(path):
    """read_parent_map on `path`, checked against the per-line reader: the
    same values, or None where both reject the map."""
    try:
        want = read_parent_map_per_line(path)
    except ValueError:
        with pytest.raises(DataValidationError,
                           match=f"bad parent map {re.escape(str(path))}: want one unsigned"):
            read_parent_map(path)
        return None
    got = read_parent_map(path)
    assert got.dtype == np.int64 and got.ndim == 1
    assert got.tobytes() == want.tobytes(), path.read_bytes()
    return got


INT64_MAX, INT64_MIN = 2**63 - 1, -2**63
BLANKS, NEWLINES, DIGITS = b" \t\x0b\x0c", b"\n\r", b"0123456789"

# accepted alike by read_parent_map and the per-line reader
PARENT_MAPS_ACCEPTED = [
    b"0\n1\n1\n2\n",                          # the written format
    b"0\n1\n2",                               # no final newline
    b"\n0\n  \n\t\n1\n\n",                    # blank lines
    b"0\r\n1\r\n",                            # CRLF
    b"0\r1\r",                                # lone CR
    b"\t0\t\n 1 \n\x0b2\x0c\n",               # tabs, spaces, \v and \f
    b"",                                      # empty: rejected later
]

# spellings no writer produces, which an earlier grammar took: a sign,
# \x1c-\x1f as whitespace, more than 18 digits; now rejected alike
PARENT_MAPS_WIDER = [
    b"+1\n+0\n",
    b"007\n00\n-00\n",
    b"\x1c\x1f \n3\n",
    b"%d\n%d\n" % (INT64_MAX, INT64_MIN),
    b"0" * 40 + b"%d\n-" % INT64_MAX + b"0" * 30 + b"%d\n" % -INT64_MIN,
    b"-1\n0\n",
]

# rejected alike by read_parent_map and the per-line reader
PARENT_MAPS_REJECTED = [
    b"0\n\xff\n", b"1.5\n", b"1 2\n", b"0x1\n", b"1e3\n", b"abc\n", b"\x00\n",
    b"+\n", b"-\n", b"--1\n", b"+-1\n", b"1-\n", b"1+2\n", b"- 1\n",
    b"\x1c1\n", b"1\x1c\n", b"1 \x1f\n", b"0\n\xd9\xa3\n", b"+1\n", b"-1\n",
]

# int() takes an underscore; the rest are outside int64
PARENT_MAPS_NOW_REJECTED = [
    b"1_0\n", b"%d\n" % (INT64_MAX + 1), b"%d\n" % (INT64_MIN - 1), b"9" * 20 + b"\n",
    b"1" + b"0" * 40 + b"\n",
]


# one line of a parent map: the written format, then rarer lines; %(a)d and
# %(b)d stand for two numbers
PARENT_MAP_LINES = [
    b"%(a)d\n",
    # accepted
    b"\n", b" %(a)d\n", b"%(a)d\t\n", b"\t\n%(a)d\n", b"\x0b%(a)d\x0c\n",
    b"%(a)d\r\n", b"%(a)d\r", b"00%(a)d\n",
    # rejected, from index PARENT_MAP_LINES_ACCEPTED on
    b"%(a)d %(b)d\n", b"%(a)d\t%(b)d\n", b"\x1e%(a)d\n", b"%(a)d \x1d\n",
    b"%(a)d-%(b)d\n", b"+%(a)d\n", b"-%(a)d\n", b"%(a)d%(b)018d\n",
]
PARENT_MAP_LINES_ACCEPTED = 9


class TestReaders:
    @pytest.mark.parametrize("content", PARENT_MAPS_ACCEPTED + PARENT_MAPS_WIDER)
    def test_parent_map_matches_the_per_line_reader(self, tmp_path, content):
        path = tmp_path / "parents.txt"
        path.write_bytes(content)
        got = read_like_the_per_line_reader(path)
        assert (got is None) == (content in PARENT_MAPS_WIDER)

    @pytest.mark.parametrize("content", PARENT_MAPS_REJECTED)
    def test_parent_map_rejected_like_the_per_line_reader(self, tmp_path, content):
        path = tmp_path / "parents.txt"
        path.write_bytes(content)
        with pytest.raises(ValueError):
            read_parent_map_per_line(path)
        with pytest.raises(DataValidationError, match="parents.txt"):
            read_parent_map(path)

    @pytest.mark.parametrize("content", PARENT_MAPS_NOW_REJECTED)
    def test_underscores_and_values_outside_int64_rejected(self, tmp_path, content):
        path = tmp_path / "parents.txt"
        path.write_bytes(content)
        with pytest.raises(DataValidationError, match="parents.txt"):
            read_parent_map(path)

    def test_parent_map_grammar_byte_by_byte(self, tmp_path):
        # the whole grammar: a line of one byte may hold a blank, a newline
        # or a digit; inside a number, only a digit or a newline may stand
        path = tmp_path / "parents.txt"
        for byte in range(256):
            b = bytes([byte])
            for content, accepted in [(b"0\n" + b + b"\n1\n", b in BLANKS + NEWLINES + DIGITS),
                                      (b"1" + b + b"2\n", b in NEWLINES + DIGITS)]:
                path.write_bytes(content)
                assert (read_like_the_per_line_reader(path) is not None) == accepted, content

    @pytest.mark.parametrize("digits, accepted", [(18, True), (19, False)])
    def test_numbers_of_up_to_18_digits_accepted(self, tmp_path, digits, accepted):
        number = b"9" * digits
        path = tmp_path / "parents.txt"
        path.write_bytes(b"0\n" + number + b"\n")
        assert (read_like_the_per_line_reader(path) is not None) == accepted
        # 10**18 - 1 rows of no columns: a header number the file size allows
        path.write_bytes(number + b" 0\n")
        if accepted:
            assert read_matrix(path).shape == (10**18 - 1, 0)
        else:
            with pytest.raises(DataValidationError, match="bad header"):
                read_matrix(path)

    def test_parent_map_agrees_with_the_per_line_reader_on_random_bytes(self, tmp_path):
        # short lines of digits, signs, blanks, newlines and a few bytes
        # outside the grammar, free of 19-digit runs by length
        alphabet = [b"0", b"1", b"7", b"9", b"-", b"+", b" ", b"\t", b"\n", b"\r",
                    b"\x0b", b"\x0c", b"\x1c", b".", b"x", b"\xff"]
        rng = np.random.default_rng(14)
        path = tmp_path / "parents.txt"
        outcomes = {"accepted": 0, "rejected": 0}
        for _ in range(2000):
            path.write_bytes(b"".join(alphabet[i] for i in
                                      rng.integers(len(alphabet), size=rng.integers(12))))
            accepted = read_like_the_per_line_reader(path) is not None
            outcomes["accepted" if accepted else "rejected"] += 1
        assert min(outcomes.values()) >= 200, outcomes

    def test_parent_map_agrees_with_the_per_line_reader_on_whole_maps(self, tmp_path):
        # maps of 50-3000 lines in the written format, with rare lines outside
        # it; most hold no blank, so the one-number-per-line check is skipped
        # on them, and the rest reach that check at file scale
        rng = np.random.default_rng(20)
        path = tmp_path / "parents.txt"
        outcomes = {"accepted": 0, "rejected": 0, "line checked": 0}
        for _ in range(500):
            size = int(rng.integers(50, 3001))
            rate = rng.choice([0.0, 1e-3, 3e-3])
            # half the maps depart from the format only within the grammar
            last = rng.choice([PARENT_MAP_LINES_ACCEPTED, len(PARENT_MAP_LINES)])
            kinds = np.where(rng.random(size) < rate, rng.integers(1, last, size), 0)
            values = rng.integers(0, 10**6, size=(size, 2)).tolist()
            content = b"".join(PARENT_MAP_LINES[kind] % {b"a": a, b"b": b}
                               for kind, (a, b) in zip(kinds.tolist(), values))
            path.write_bytes(content)
            if read_like_the_per_line_reader(path) is None:
                outcomes["rejected"] += 1
            else:
                outcomes["accepted"] += 1
                outcomes["line checked"] += any(byte in content for byte in BLANKS)
        assert min(outcomes.values()) >= 50, outcomes

    def test_directory_parent_map(self, tmp_path):
        (tmp_path / "parents.txt").mkdir()
        with pytest.raises(DataValidationError, match="missing parent map"):
            read_parent_map(tmp_path / "parents.txt")

    @pytest.mark.parametrize("header_bytes", [4, 63, 64, 65, 128, 304])
    def test_header_of_any_length_loads_bit_exactly(self, tmp_path, header_bytes):
        # leading spaces pad the header; the newline falls before, on and
        # after the end of the first read
        mat = np.random.default_rng(header_bytes).normal(size=(5, 3))
        path = tmp_path / "m.mat"
        path.write_bytes(b"5 3\n".rjust(header_bytes) + mat.astype("<f8").tobytes())
        back = read_matrix(path)
        assert back.shape == (5, 3) and back.tobytes() == mat.tobytes()

    def test_reads_that_stop_short_are_resumed(self, tmp_path, monkeypatch):
        # one read may return fewer bytes than asked for (Linux stops one at
        # 2 GiB); here every read stops after 7 bytes
        mat = np.random.default_rng(5).normal(size=(6, 4))
        write_matrix(tmp_path / "m.mat", mat)
        (tmp_path / "parents.txt").write_bytes(b"3\n" * 20)
        readv = os.readv
        monkeypatch.setattr(os, "readv", lambda fd, buffers: readv(
            fd, [memoryview(buffers[0]).cast("B")[:7]]))
        assert read_matrix(tmp_path / "m.mat").tobytes() == mat.tobytes()
        assert read_parent_map(tmp_path / "parents.txt").tolist() == [3] * 20

    def test_missing_parent_map(self, tmp_path):
        with pytest.raises(DataValidationError, match="missing parent map"):
            read_parent_map(tmp_path / "nope.txt")

    @pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir()])
    def test_missing_or_directory_matrix(self, tmp_path, make):
        path = tmp_path / "m.mat"
        make(path)
        with pytest.raises(DataValidationError, match="missing embedding file"):
            read_matrix(path)

    @pytest.mark.parametrize("content, message", [
        (b"abc\n" + bytes(8), "bad header"),
        (b"1 2 3\n" + bytes(48), "bad header"),
        (b"-2 -4\n" + bytes(64), "bad header"),
        (b"2 4\n" + bytes(63), "expected 64 payload bytes for 2x4, got 63"),
        (b"2 4\n" + bytes(65), "expected 64 payload bytes for 2x4, got 65"),
    ])
    def test_malformed_matrix_rejected(self, tmp_path, content, message):
        path = tmp_path / "m.mat"
        path.write_bytes(content)
        with pytest.raises(DataValidationError, match=message):
            read_matrix(path)

    @pytest.mark.parametrize("header, message", [
        (b"1_0 +1", "bad header"),                        # int() takes the underscore
        (b"1 1_0", "bad header"),
        ("\u0661\u0660 1".encode(), "bad header"),          # Arabic-Indic digits
        (b"\x1c10 1", "bad header"),
        (b"+-10 1", "bad header"),
        (b"10+ 1", "bad header"),
        (b"%d 1" % (INT64_MAX + 1), "bad header"),           # 19 digits
        (b"1 %d" % 2**64, "bad header"),
        (b"+10 1", "bad header"),                         # a sign
        (b" 10\t+1 ", "bad header"),
    ])
    def test_header_outside_the_parent_map_grammar_rejected(self, tmp_path, header, message):
        path = tmp_path / "m.mat"
        path.write_bytes(header + b"\n" + bytes(80))
        with pytest.raises(DataValidationError, match=message) as err:
            read_matrix(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("header", [b" 10\t1 ", b"0010 01", b"10 1\r"])
    def test_header_in_the_parent_map_grammar_accepted(self, tmp_path, header):
        path = tmp_path / "m.mat"
        path.write_bytes(header + b"\n" + bytes(80))
        assert read_matrix(path).shape == (10, 1)

    def test_lying_header_sizes_no_allocation(self, tmp_path):
        # 2**30 x 2**30 float64 values would be 8 EiB; only the file size check
        # stands between the header and the allocation
        path = tmp_path / "m.mat"
        path.write_bytes(b"%d %d\n" % (2**30, 2**30) + bytes(16))
        with pytest.raises(DataValidationError, match="expected 9223372036854775808"):
            read_matrix(path)

    @pytest.mark.parametrize("content, message", [
        (b"-1\n" * 24, "p0000_parents.txt: want one unsigned decimal index"),
        (b"4\n" * 24, "out of range"),
        (b"", "0 entries for 24 patches"),
        (b"0\n" * 23 + b"%d\n" % (INT64_MAX + 1), "p0000_parents.txt"),
    ])
    def test_cohort_parent_map_rejected(self, tmp_path, content, message):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=1))
        manifest = write_cohort(records, prompts, tmp_path)
        (tmp_path / "p0000_parents.txt").write_bytes(content)
        with pytest.raises(DataValidationError, match=message):
            load_cohort(manifest)


class TestManifestTypes:
    @pytest.fixture
    def manifest(self, tmp_path):
        records, prompts, _ = generate_synthetic(small_spec(n_patients=2))
        return write_cohort(records, prompts, tmp_path)

    def rewrite(self, manifest, edit):
        raw = json.loads(manifest.read_text())
        manifest.write_text(json.dumps(edit(raw)))

    @pytest.mark.parametrize("key, value", [
        ("id", 5), ("censor", "0"), ("censor", False), ("censor", 0.0),
        ("time", "34.2"), ("time", None), ("time", True), ("patch", 3),
        ("parents", None), ("time_bin", "2"), ("time_bin", 2.0),
    ])
    def test_entry_key_of_wrong_type_names_file_entry_and_key(self, manifest, key, value):
        def edit(raw):
            raw["patients"][1][key] = value
            return raw
        self.rewrite(manifest, edit)
        with pytest.raises(DataValidationError) as err:
            load_cohort(manifest)
        assert f"patient field {key} in entry 1 of {manifest} " in str(err.value)

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["patients"], "manifest in"),
        (lambda raw: {**raw, "patients": {"p0000": {}}}, "manifest field patients"),
        (lambda raw: {**raw, "prompts": ["a.mat"]}, "manifest field prompts"),
        (lambda raw: {**raw, "prompts": {"patch": 1}}, "prompts field patch"),
        (lambda raw: {**raw, "patients": [["p0000"]]}, "patient in entry 0"),
    ])
    def test_container_of_wrong_type_rejected(self, manifest, edit, message):
        self.rewrite(manifest, edit)
        with pytest.raises(DataValidationError, match=message):
            load_cohort(manifest)

    def test_missing_key_names_entry(self, manifest):
        def edit(raw):
            del raw["patients"][1]["parents"]
            return raw
        self.rewrite(manifest, edit)
        with pytest.raises(DataValidationError, match=r"entry 1 .* lacks fields \['parents'\]"):
            load_cohort(manifest)

    @pytest.mark.parametrize("content", [b'{"patients": [', b'{"note": "\xff"}'])
    def test_invalid_json_rejected(self, manifest, content):
        manifest.write_bytes(content)
        with pytest.raises(DataValidationError, match="not valid JSON"):
            load_cohort(manifest)

    def test_non_ascii_parent_map_rejected(self, manifest, tmp_path):
        (tmp_path / "p0001_parents.txt").write_bytes(b"0\n\xff\n")
        with pytest.raises(DataValidationError, match="p0001_parents.txt"):
            load_cohort(manifest)

    def test_int_time_unknown_keys_and_null_prompt_accepted(self, manifest):
        def edit(raw):
            raw["patients"][0].update(time=12, time_bin=None, site="A")
            raw["prompts"]["region"] = None
            raw["note"] = "unread"
            return raw
        self.rewrite(manifest, edit)
        records, prompts = load_cohort(manifest)
        assert records[0].time == 12.0 and isinstance(records[0].time, float)
        assert records[0].time_bin is None
        assert set(prompts) == {PATCH}


class TestDiscretizer:
    def test_distinct_times_get_distinct_bins(self):
        records = [make_record(f"p{i}", 0, t) for i, t in enumerate([1.0, 2.0, 3.0, 4.0])]
        discretize_times(records, 4)
        assert [r.time_bin for r in records] == [1, 2, 3, 4]

    def test_all_equal_times_warn_and_collapse(self):
        records = [make_record(f"p{i}", 0, 5.0) for i in range(4)]
        with pytest.warns(UserWarning, match="equal"):
            discretize_times(records, 3)
        assert all(r.time_bin == 1 for r in records)

    def test_edges_from_uncensored_only_against_quantile_oracle(self):
        rng = np.random.default_rng(9)
        times = rng.uniform(1.0, 50.0, size=40)
        censors = (rng.uniform(size=40) < 0.4).astype(int)
        records = [make_record(f"p{i}", int(c), float(t))
                   for i, (t, c) in enumerate(zip(times, censors))]
        edges = discretize_times(records, 4)
        uncensored = np.sort(times[censors == 0])
        oracle = np.quantile(uncensored, [0.25, 0.5, 0.75])
        assert edges == pytest.approx(oracle, abs=0.0)
        for rec in records:
            assert rec.time_bin == 1 + int(np.sum(oracle < rec.time))

    def test_monotone_in_time(self):
        rng = np.random.default_rng(10)
        times = rng.uniform(1.0, 30.0, size=25)
        records = [make_record(f"p{i}", 0, float(t)) for i, t in enumerate(times)]
        discretize_times(records, 5)
        by_time = sorted(records, key=lambda r: r.time)
        bins = [r.time_bin for r in by_time]
        assert bins == sorted(bins)

    def test_too_few_uncensored_is_config_error(self):
        records = [make_record("a", 1, 1.0), make_record("b", 0, 2.0)]
        with pytest.raises(ConfigError, match="uncensored"):
            discretize_times(records, 2)

    def test_needs_at_least_two_bins(self):
        with pytest.raises(ConfigError):
            discretize_times([make_record("a", 0, 1.0)], 1)


class TestValidation:
    def test_censor_must_be_binary(self):
        with pytest.raises(DataValidationError, match="censor"):
            make_record("p", 2, 1.0)

    def test_time_must_be_positive(self):
        with pytest.raises(DataValidationError, match="time"):
            make_record("p", 0, 0.0)

    def test_bag_parent_length_must_match(self):
        with pytest.raises(DataValidationError, match="parent"):
            FeatureBag(PATCH, np.ones((3, 2)), [0, 1])

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0)])
    def test_bags_and_prompt_sets_need_entries(self, shape):
        for make in (lambda: FeatureBag(PATCH, np.zeros(shape)),
                     lambda: PromptSet(REGION, np.zeros(shape))):
            with pytest.raises(DataValidationError, match="nonempty matrix"):
                make()

    def test_bags_and_prompt_sets_compare_by_identity(self):
        # a field-wise comparison would ask numpy for the truth of an array
        rec = make_record("p", 0, 1.0)
        bag = rec.patch_bag
        copied = replace(rec, patch_bag=FeatureBag(PATCH, bag.tokens.copy(),
                                                   bag.parent_region.copy()))
        assert (rec == copied) is False
        prompts = PromptSet(PATCH, np.eye(2))
        assert len({bag, copied.patch_bag, prompts, PromptSet(PATCH, np.eye(2))}) == 4

    def test_synth_spec_field_ranges(self):
        with pytest.raises(ConfigError):
            small_spec(signal_fraction=0.0)
        with pytest.raises(ConfigError):
            small_spec(censor_rate=1.0)
        with pytest.raises(ConfigError):
            small_spec(n_regions=0)
