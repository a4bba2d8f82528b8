"""The version-3 store layout: sparse source rows and a narrow estimation.

A store keeps the source as CSR rows (row pointer, letter codes,
probabilities) and the z-estimation in the narrowest integer types that hold
it.  Loading decodes the rows into the same dense matrix, bit for bit, and
hands the narrow estimation to the update path as stored.  These tests pin
the round trip over awkward inputs, the update path reading narrow arrays,
the reload that splices the previous parent, the version-2 read path
(committed fixtures) and the per-section byte report of ``verify_store``.
"""

from __future__ import annotations

import json
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_differential_fuzz import assert_index_matches_oracle

from repro.cli import main as cli_main
from repro.core import estimation as estimation_module
from repro.core.alphabet import Alphabet
from repro.core.weighted_string import WeightedString
from repro.indexes import build_index
from repro.indexes.minimizer_core import LeafArrays
from repro.io.store import (
    SECTIONS,
    apply_updates_durably,
    compact_store,
    load_index,
    load_sharded_store,
    recover_sharded_store,
    reload_sharded_store,
    save_index,
    save_sharded_store,
    stored_arrays,
    verify_store,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "store"
ALL_KINDS = ("WST", "WSA", "MWST", "MWSA", "MWST-G", "MWSA-G", "MWST-SE")
SIGMAS = (1, 2, 4, 91, 255, 256, 300)
ELL = 4
Z = 4.0

#: Letters per row of each row kind (capped at σ).
ROW_KINDS = {"certain": 1, "pair": 2, "spread": 5, "subnormal": 2, "negative-zero": 2}


def alphabet_of(sigma: int) -> Alphabet:
    return Alphabet("ACGT") if sigma == 4 else Alphabet([f"c{code}" for code in range(sigma)])


def make_string(kinds, sigma: int, seed: int) -> WeightedString:
    """One row per entry of ``kinds``; letters and weights from ``seed``."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((len(kinds), sigma))
    for position, kind in enumerate(kinds):
        letters = rng.choice(sigma, size=min(sigma, ROW_KINDS[kind]), replace=False)
        if kind == "certain" or len(letters) == 1:
            matrix[position, letters[0]] = 1.0
        elif kind == "subnormal":
            matrix[position, letters] = [1.0, 5e-324]
        elif kind == "negative-zero":
            matrix[position, letters] = [1.0, -0.0]
        else:
            weights = rng.random(len(letters)) + 0.05
            matrix[position, letters] = weights / weights.sum()
    return WeightedString(matrix, alphabet_of(sigma))


def mixed_string(n: int, sigma: int, seed: int) -> WeightedString:
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["certain", "certain", "pair", "spread"], size=n)
    return make_string(kinds, sigma, seed)


def patterns_for(index, source: WeightedString, seed: int, count: int = 6):
    """Heavy-string windows plus random codes, at the shortest valid lengths."""
    rng = np.random.default_rng(seed)
    heavy = source.heavy_codes()
    shortest = max(1, index.minimum_pattern_length)
    patterns = []
    for number in range(count):
        m = shortest + number % 3
        if number % 2 == 0 and m <= len(source):
            start = int(rng.integers(0, len(source) - m + 1))
            patterns.append([int(code) for code in heavy[start : start + m]])
        else:
            patterns.append([int(code) for code in rng.integers(0, source.sigma, size=m)])
    return patterns


def container_version(path: Path) -> int:
    """The ``version`` field of a store file's JSON header."""
    with open(path, "rb") as handle:
        handle.read(8)
        (length,) = struct.unpack("<Q", handle.read(8))
        handle.read(4)
        return json.loads(handle.read(length))["version"]


def assert_data_equal(live, fresh, label) -> None:
    """Leaf arrays and estimation of two minimizer datas are equal in value."""
    for side in ("forward", "backward"):
        for name in LeafArrays.__slots__:
            assert np.array_equal(
                getattr(getattr(live, side).arrays, name),
                getattr(getattr(fresh, side).arrays, name),
            ), (label, side, name)
    assert np.array_equal(live.estimation.strings, fresh.estimation.strings), label
    assert np.array_equal(live.estimation.ends, fresh.estimation.ends), label


def assert_narrow(estimation, sigma: int) -> None:
    assert estimation.strings.dtype == np.min_scalar_type(sigma - 1)
    assert estimation.ends.dtype == np.int32


# --------------------------------------------------------------------------- #
# round trip                                                                   #
# --------------------------------------------------------------------------- #
@st.composite
def stored_inputs(draw):
    sigma = draw(st.sampled_from(SIGMAS))
    n = draw(st.integers(min_value=1, max_value=14))
    if draw(st.booleans()):
        kinds = ["certain"] * n
    else:
        kinds = draw(st.lists(st.sampled_from(sorted(ROW_KINDS)), min_size=n, max_size=n))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    z = draw(st.sampled_from([1.0, 2.0, 4.0]))
    return make_string(kinds, sigma, seed), z, seed, draw(st.booleans())


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @settings(max_examples=12, deadline=None)
    @given(inputs=stored_inputs())
    def test_store_round_trip_is_exact(self, kind, inputs):
        source, z, seed, mmap = inputs
        index = build_index(source, z, kind=kind, ell=ELL)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.idx"
            save_index(path, index)
            loaded = load_index(path, mmap=mmap)
            assert loaded.source.matrix.tobytes() == index.source.matrix.tobytes()
            built = getattr(getattr(index, "data", None), "estimation", None)
            if built is not None:
                stored = loaded.data.estimation
                assert_narrow(stored, source.sigma)
                assert np.array_equal(stored.strings, built.strings)
                assert np.array_equal(stored.ends, built.ends)
            label = (kind, source.sigma, len(source), z, mmap)
            patterns = patterns_for(loaded, source, seed)
            assert_index_matches_oracle(loaded, source, patterns, z, label)

    def test_sparse_rows_keep_bit_patterns(self):
        source = make_string(["subnormal", "negative-zero", "certain", "spread"], 91, 3)
        rows, codes, probabilities = source.sparse_rows()
        assert rows.dtype == np.int32 and codes.dtype == np.uint8
        assert rows.tolist() == [0, 2, 4, 5, 10]
        assert np.signbit(probabilities).sum() == 1  # the -0.0 entry is kept
        decoded = WeightedString.from_sparse_rows(rows, codes, probabilities, source.alphabet)
        assert decoded.matrix.tobytes() == source.matrix.tobytes()

    @pytest.mark.parametrize(
        "damage",
        ["pointer", "order", "code", "probability"],
    )
    def test_malformed_sparse_rows_are_rejected(self, damage):
        from repro.errors import WeightedStringError

        source = make_string(["pair", "certain", "spread"], 4, 1)
        rows, codes, probabilities = (np.array(a) for a in source.sparse_rows())
        if damage == "pointer":
            rows[-1] += 1
        elif damage == "order":
            codes[[0, 1]] = codes[[1, 0]]  # row 0 holds two entries
        elif damage == "code":
            codes[0] = 4
        else:
            probabilities[0] = np.nan
        with pytest.raises(WeightedStringError):
            WeightedString.from_sparse_rows(rows, codes, probabilities, source.alphabet)


# --------------------------------------------------------------------------- #
# updates read the narrow arrays                                               #
# --------------------------------------------------------------------------- #
class TestUpdatesOnLoadedStores:
    @pytest.mark.parametrize("sigma", [4, 300])
    @pytest.mark.parametrize("shards", [None, 3])
    def test_updates_equal_a_fresh_build(self, tmp_path, monkeypatch, sigma, shards):
        # Checkpoints every 32 positions, so each (shard) estimation resumes.
        monkeypatch.setattr(estimation_module, "DEFAULT_CHECKPOINT_EVERY", 32)
        source = mixed_string(360, sigma, seed=sigma)
        options = {"shards": shards, "max_pattern_len": 2 * ELL} if shards else {}
        index = build_index(source, Z, kind="MWSA", ell=ELL, **options)
        store = tmp_path / "store"
        if shards:
            save_sharded_store(store, index)
            loaded = load_sharded_store(store, mmap=True)
            parts = loaded.shard_indexes
        else:
            save_index(store, index)
            loaded = load_index(store, mmap=True)
            parts = [loaded]
        for part in parts:
            assert_narrow(part.data.estimation, sigma)
        reference = WeightedString(np.array(source.matrix), source.alphabet)
        rng = np.random.default_rng(sigma)
        batches = [
            [(200, rng.random(sigma) + 0.01)],  # point
            [(90 + offset, rng.random(sigma) + 0.01) for offset in range(10)],  # ranged
        ]
        strategies = []
        for batch in batches:
            reference.apply_updates(batch)
            if shards:
                report, _, _ = apply_updates_durably(store, loaded, batch, generation_names=True)
                strategies += [r["strategy"] for r in report.details["shard_repairs"]]
                loaded, _ = reload_sharded_store(store, loaded)
            else:
                report = loaded.apply_updates(batch)
                strategies.append(report.strategy)
            assert loaded.source.matrix.tobytes() == reference.matrix.tobytes()
            fresh = build_index(reference, Z, kind="MWSA", ell=ELL, **options)
            if shards:
                for number, (live, built) in enumerate(
                    zip(loaded.shard_indexes, fresh.shard_indexes)
                ):
                    assert_data_equal(live.data, built.data, number)
            else:
                assert_data_equal(loaded.data, fresh.data, "monolithic")
            patterns = patterns_for(loaded, reference, seed=len(strategies), count=9)
            assert_index_matches_oracle(loaded, reference, patterns, Z, (sigma, shards))
        assert "localized" in strategies

    @pytest.mark.parametrize("sigma", [4, 300])
    def test_foreign_codes_never_occur_in_a_narrow_estimation(self, tmp_path, sigma):
        source = mixed_string(40, sigma, seed=2)
        index = build_index(source, Z, kind="MWSA", ell=ELL)
        save_index(tmp_path / "index.idx", index)
        stored = load_index(tmp_path / "index.idx").data.estimation
        built = index.data.estimation
        assert_narrow(stored, sigma)
        for pattern in ([sigma], [255], [256], [70_000], [-1], [0, sigma + 44]):
            assert stored.count(pattern, 0) == 0
            assert stored.occurrences(pattern) == []
        pattern = [int(code) for code in built.strings[0, 5:8]]
        assert stored.occurrences(pattern) == built.occurrences(pattern)
        assert [stored.count(pattern, i) for i in range(40)] == [
            built.count(pattern, i) for i in range(40)
        ]


# --------------------------------------------------------------------------- #
# reload splices the previous parent                                           #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("with_logs", [False, True])
def test_reload_matches_a_fresh_load(tmp_path, with_logs):
    source = mixed_string(600, 4, seed=9)
    index = build_index(source, Z, kind="MWSA", ell=ELL, shards=3, max_pattern_len=8)
    store = tmp_path / "store"
    save_sharded_store(store, index)
    writer = load_sharded_store(store, mmap=True)
    served = load_sharded_store(store, mmap=True)
    shards = writer.shards
    batches = [
        [(shards[1].start + 50, {"A": 1.0})],  # point
        [(shards[2].start + 10 + k, {"C": 0.5, "G": 0.5}) for k in range(12)],  # ranged
        [(shards[0].core_end + 2, {"T": 1.0})],  # overlap: dirties shards 0 and 1
    ]
    for batch in batches:
        if with_logs:
            served.source.log_matrix  # computed before the reload
        before = served.source.matrix.tobytes()
        apply_updates_durably(store, writer, batch, generation_names=True)
        reloaded, numbers = reload_sharded_store(store, served)
        assert numbers == writer.dirty_shards([position for position, _ in batch])
        fresh = load_sharded_store(store, mmap=True)
        assert reloaded.source.matrix.tobytes() == fresh.source.matrix.tobytes()
        assert (reloaded.source._log_probs is not None) == with_logs
        assert reloaded.source.log_matrix.tobytes() == fresh.source.log_matrix.tobytes()
        assert served.source.matrix.tobytes() == before  # readers keep the old view
        # The comparison above computed the logs; without them, the next
        # round starts from a parent that never computed any.
        served = reloaded if with_logs else load_sharded_store(store, mmap=True)


# --------------------------------------------------------------------------- #
# version-2 fixtures                                                           #
# --------------------------------------------------------------------------- #
V2_FILE = FIXTURES / "v2-mwsa.idx"
V2_DIRECTORY = FIXTURES / "v2-sharded"


def fresh_build_like(loaded):
    source = WeightedString(np.array(loaded.source.matrix), loaded.source.alphabet)
    options = {}
    if hasattr(loaded, "shard_indexes"):
        options = {"shards": len(loaded.shards), "max_pattern_len": loaded.maximum_pattern_length}
    return source, build_index(source, loaded.z, kind="MWSA", ell=ELL, **options)


class TestVersionTwoStores:
    def test_fixtures_are_version_two(self):
        assert container_version(V2_FILE) == 2
        manifest = json.loads((V2_DIRECTORY / "manifest.json").read_text())
        assert [container_version(V2_DIRECTORY / e["file"]) for e in manifest["shards"]] == [2, 2]

    @pytest.mark.parametrize("mmap", [True, False])
    def test_v2_stores_answer_like_a_fresh_build(self, mmap):
        for loaded in (
            load_index(V2_FILE, mmap=mmap),
            load_sharded_store(V2_DIRECTORY, mmap=mmap),
        ):
            source, fresh = fresh_build_like(loaded)
            patterns = patterns_for(loaded, source, seed=4, count=12)
            assert loaded.match_many(patterns) == fresh.match_many(patterns)
            assert_index_matches_oracle(loaded, source, patterns, loaded.z, ("v2", mmap))
        assert load_index(V2_FILE).data.estimation.strings.dtype == np.int64

    def test_updated_v2_directory_mixes_versions(self, tmp_path):
        directory = tmp_path / "store"
        shutil.copytree(V2_DIRECTORY, directory)
        served = load_sharded_store(directory, mmap=True)
        writer = load_sharded_store(directory, mmap=True)
        last = writer.shards[1]
        position = writer.shards[0].end + 2  # shard 1 only
        assert last.start <= position < last.core_end
        _, outcome, _ = apply_updates_durably(
            directory, writer, [(position, {"A": 1.0})], generation_names=True
        )
        for path in outcome["obsolete"]:
            Path(path).unlink()
        manifest = json.loads((directory / "manifest.json").read_text())
        files = [directory / entry["file"] for entry in manifest["shards"]]
        assert [container_version(path) for path in files] == [2, 3]

        assert verify_store(directory)["ok"]
        assert cli_main(["verify-store", "--store", str(directory)]) == 0
        reloaded, numbers = reload_sharded_store(directory, served)
        assert numbers == [1]
        source, fresh = fresh_build_like(writer)
        patterns = patterns_for(fresh, source, seed=5, count=12)
        assert_index_matches_oracle(reloaded, source, patterns, Z, "reloaded")
        recovered, report = recover_sharded_store(directory)
        assert report["status"] == "clean"
        assert_index_matches_oracle(recovered, source, patterns, Z, "recovered")
        compact_store(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert [entry["file"] for entry in manifest["shards"]] == [
            "shard-0000.idx", "shard-0001.idx"
        ]
        assert [container_version(directory / e["file"]) for e in manifest["shards"]] == [2, 3]
        compacted = load_sharded_store(directory, mmap=False)
        assert_index_matches_oracle(compacted, source, patterns, Z, "compacted")


def container_arrays(path: Path) -> dict:
    """The array manifest of a store file's JSON header."""
    with open(path, "rb") as handle:
        handle.read(8)
        (length,) = struct.unpack("<Q", handle.read(8))
        handle.read(4)
        return json.loads(handle.read(length))["arrays"]


# --------------------------------------------------------------------------- #
# arrays no query reads                                                        #
# --------------------------------------------------------------------------- #
class TestUnreadArrays:
    """Arrays no load path reads are not written; older stores with them load."""

    def test_wst_store_has_no_lcp_and_answers_like_the_build(self, tmp_path):
        source = mixed_string(150, 4, seed=6)
        index = build_index(source, Z, kind="WST")
        path = tmp_path / "wst.idx"
        save_index(path, index)
        assert "ps.lcp" not in container_arrays(path)
        assert "ps.lcp" not in stored_arrays(index)
        patterns = patterns_for(index, source, seed=7, count=12)
        for mmap in (True, False):
            loaded = load_index(path, mmap=mmap)
            assert loaded.structure.lcp is None
            assert loaded.match_many(patterns) == index.match_many(patterns)
            assert_index_matches_oracle(loaded, source, patterns, Z, ("wst", mmap))
            assert [loaded.locate_probs(p) for p in patterns] == [
                index.locate_probs(p) for p in patterns
            ]

    def test_pairing_is_stored_for_grid_kinds_only(self, tmp_path):
        source = mixed_string(150, 4, seed=8)
        for kind in ALL_KINDS:
            save_index(tmp_path / "index.idx", build_index(source, Z, kind=kind, ell=ELL))
            stored = "pairs" in container_arrays(tmp_path / "index.idx")
            assert stored == kind.endswith("-G"), kind
            if kind not in ("WST", "WSA"):
                loaded = load_index(tmp_path / "index.idx")
                assert (loaded.data.pairs is not None) == stored, kind
        assert "pairs" in container_arrays(V2_FILE)  # an older MWSA store still loads
        assert load_index(V2_FILE).data.pairs is None

    def test_older_wst_store_with_lcp_still_loads_and_verifies(self, tmp_path):
        from repro.io import store as store_module

        source = mixed_string(150, 4, seed=9)
        index = build_index(source, Z, kind="WST")
        arrays = {}
        body = store_module._pack_body(index, arrays, "")
        store_module._pack_source(arrays, index.source)
        arrays["ps.lcp"] = index.structure.lcp  # what earlier writers stored
        meta = {"z": index.z, "alphabet": list(source.alphabet.letters), "body": body}
        path = tmp_path / "old-wst.idx"
        store_module._write_container(path, meta, arrays)
        manifest = container_arrays(path)
        assert "ps.lcp" in manifest
        loaded = load_index(path, mmap=False, verify=True)
        patterns = patterns_for(index, source, seed=10, count=12)
        assert loaded.match_many(patterns) == index.match_many(patterns)
        assert verify_store(path)["ok"]
        # Its checksum is still checked: flip one byte of the blob.
        raw = bytearray(path.read_bytes())
        (length,) = struct.unpack_from("<Q", raw, 8)
        data_start = -(-(20 + length) // 64) * 64
        raw[data_start + manifest["ps.lcp"]["offset"]] ^= 0xFF
        path.write_bytes(bytes(raw))
        report = verify_store(path)
        assert not report["ok"]
        assert any("ps.lcp" in problem["error"] for problem in report["problems"])


# --------------------------------------------------------------------------- #
# bytes per section                                                            #
# --------------------------------------------------------------------------- #
class TestSectionBytes:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sections_sum_to_the_file_sizes(self, tmp_path, kind):
        source = mixed_string(120, 4, seed=3)
        index = build_index(source, Z, kind=kind, ell=ELL)
        save_index(tmp_path / "index.idx", index)
        sharded = build_index(source, Z, kind=kind, ell=ELL, shards=2, max_pattern_len=8)
        save_sharded_store(tmp_path / "dir", sharded)
        save_index(tmp_path / "sharded.idx", sharded)
        for path in (tmp_path / "index.idx", tmp_path / "dir", tmp_path / "sharded.idx"):
            sizes = verify_store(path)["bytes"]
            files = sorted(path.glob("shard-*.idx")) if path.is_dir() else [path]
            assert sorted(sizes["files"]) == sorted(file.name for file in files)
            for file in files:
                entry = sizes["files"][file.name]
                assert entry["total"] == file.stat().st_size
                assert sum(entry["sections"].values()) == entry["total"]
            assert sizes["total"] == sum(file.stat().st_size for file in files)
            assert sum(sizes["sections"].values()) == sizes["total"]
            assert set(sizes["sections"]) == set(SECTIONS)

    @pytest.mark.parametrize("sigma", [4, 91])
    def test_source_and_estimation_match_the_space_model(self, tmp_path, sigma):
        n = 500
        source = mixed_string(n, sigma, seed=sigma)
        index = build_index(source, Z, kind="MWSA", ell=ELL)
        save_index(tmp_path / "index.idx", index)
        sections = verify_store(tmp_path / "index.idx")["bytes"]["sections"]
        code_bytes = 1
        nnz = int(np.count_nonzero(source.matrix))
        source_bytes = 4 * (n + 1) + nnz * (8 + code_bytes)
        assert source_bytes <= sections["source"] < source_bytes + 3 * 64
        estimation_bytes = int(Z) * n * (code_bytes + 4)
        assert estimation_bytes <= sections["estimation"] < estimation_bytes + 2 * 64

    def test_verify_store_prints_the_sections(self, tmp_path, capsys):
        index = build_index(mixed_string(80, 4, seed=1), Z, kind="MWSA", ell=ELL)
        save_index(tmp_path / "index.idx", index)
        assert cli_main(["verify-store", "--store", str(tmp_path / "index.idx")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["bytes"]["total"] == (tmp_path / "index.idx").stat().st_size
        assert printed["bytes"]["sections"]["source"] > 0
