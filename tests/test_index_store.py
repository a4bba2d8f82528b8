"""The binary index store: round trips, memory mapping, format validation."""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro.errors import SerializationError, StoreCorruptionError, StoreFormatError
from repro.indexes import build_index
from repro.io.store import STORE_FORMAT, load_index, save_index

ALL_KINDS = ("WST", "WSA", "MWST", "MWSA", "MWST-G", "MWSA-G", "MWST-SE")


@pytest.fixture(scope="module")
def stored_source():
    from repro.datasets.synthetic import sparse_uncertainty_string

    return sparse_uncertainty_string(200, 4, delta=0.3, seed=7)


def _patterns(source, count=15, seed=0):
    rng = np.random.default_rng(seed)
    return [
        [int(code) for code in rng.integers(0, source.sigma, size=m)]
        for m in (4, 5, 7)
        for _ in range(count // 3)
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_kind_round_trips(self, tmp_path, stored_source, kind):
        index = build_index(stored_source, 4, kind=kind, ell=4)
        path = tmp_path / f"{kind}.idx"
        save_index(path, index)
        loaded = load_index(path)
        patterns = _patterns(stored_source)
        assert loaded.match_many(patterns) == index.match_many(patterns)
        assert loaded.locate(patterns[0]) == index.locate(patterns[0])
        assert loaded.z == index.z
        assert loaded.minimum_pattern_length == index.minimum_pattern_length

    def test_loaded_stats_marked_and_preserved(self, tmp_path, stored_source):
        index = build_index(stored_source, 4, kind="MWSA", ell=4)
        path = tmp_path / "mwsa.idx"
        save_index(path, index)
        loaded = load_index(path)
        assert loaded.stats.counters["loaded_from_store"] is True
        assert loaded.stats.index_size_bytes == index.stats.index_size_bytes
        assert loaded.stats.name == index.stats.name

    def test_mmap_and_ram_modes_agree(self, tmp_path, stored_source):
        index = build_index(stored_source, 4, kind="MWSA-G", ell=4)
        path = tmp_path / "grid.idx"
        save_index(path, index)
        mapped = load_index(path, mmap=True)
        in_ram = load_index(path, mmap=False)
        patterns = _patterns(stored_source)
        assert mapped.match_many(patterns) == in_ram.match_many(patterns)
        # The default load memory-maps the stored source rows from the file
        # (the dense matrix is decoded from them, so check the rows the
        # WeightedString keeps and the buffer they are backed by).
        def file_backed(array) -> bool:
            while isinstance(array, np.ndarray):
                if isinstance(array, np.memmap):
                    return True
                array = array.base
            return array is not None and type(array).__name__ == "mmap"

        assert all(file_backed(array) for array in mapped.source.sparse_rows())
        assert not any(file_backed(array) for array in in_ram.source.sparse_rows())
        assert not file_backed(in_ram.source.matrix)

    def test_sharded_round_trip(self, tmp_path, stored_source):
        index = build_index(
            stored_source, 4, kind="MWSA", ell=4, shards=3, max_pattern_len=10
        )
        path = tmp_path / "sharded.idx"
        save_index(path, index)
        loaded = load_index(path)
        patterns = _patterns(stored_source)
        assert loaded.match_many(patterns) == index.match_many(patterns)
        assert loaded.maximum_pattern_length == 10
        assert [
            (shard.start, shard.core_end, shard.end) for shard in loaded.shards
        ] == [(shard.start, shard.core_end, shard.end) for shard in index.shards]

    def test_exact_probability_round_trip(self, tmp_path, stored_source):
        index = build_index(stored_source, 4, kind="WSA")
        path = tmp_path / "wsa.idx"
        save_index(path, index)
        loaded = load_index(path)
        assert np.array_equal(
            np.asarray(loaded.source.matrix), stored_source.matrix
        )


class TestFormatValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.idx"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 32)
        with pytest.raises(SerializationError, match="bad magic"):
            load_index(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot read"):
            load_index(tmp_path / "absent.idx")

    def _write_header_only(self, path, header) -> None:
        """A container holding only ``header`` (a dict or raw bytes), v2 framing."""
        if isinstance(header, dict):
            header = json.dumps(header).encode("utf-8")
        path.write_bytes(
            b"RPROIDX2"
            + struct.pack("<Q", len(header))
            + struct.pack("<I", zlib.crc32(header))
            + header
        )

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.idx"
        self._write_header_only(
            path, {"format": STORE_FORMAT, "version": 99, "meta": {}, "arrays": {}}
        )
        with pytest.raises(SerializationError, match="version"):
            load_index(path)

    def test_version_1_containers_rejected(self, tmp_path):
        header = {"format": STORE_FORMAT, "version": 1, "meta": {}, "arrays": {}}
        framed = tmp_path / "v1-header.idx"
        self._write_header_only(framed, header)
        header_bytes = json.dumps(header).encode("utf-8")
        original = tmp_path / "v1.idx"  # the version-1 framing: own magic, no CRC
        original.write_bytes(
            b"RPROIDX\n" + struct.pack("<Q", len(header_bytes)) + header_bytes
        )
        for path in (framed, original):
            with pytest.raises(StoreFormatError, match=r"supported: 2, 3\)"):
                load_index(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.idx"
        self._write_header_only(
            path, {"format": "someone.elses", "version": 3, "meta": {}, "arrays": {}}
        )
        with pytest.raises(SerializationError, match="format"):
            load_index(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "corrupt.idx"
        self._write_header_only(path, b"not json!!")
        with pytest.raises(SerializationError, match="corrupt"):
            load_index(path)

    def test_array_without_checksum_is_corruption(self, tmp_path, stored_source):
        path = tmp_path / "unchecked.idx"
        save_index(path, build_index(stored_source, 4.0, kind="MWSA", ell=4))
        raw = bytearray(path.read_bytes())
        (length,) = struct.unpack_from("<Q", raw, 8)
        header = bytes(raw[20 : 20 + length])
        # Same-length rename, so every blob keeps its offset.
        header = header.replace(b'"crc32"', b'"crcXX"', 1)
        raw[16:20] = struct.pack("<I", zlib.crc32(header))
        raw[20 : 20 + length] = header
        path.write_bytes(bytes(raw))
        load_index(path, verify=False)  # the structure is intact
        with pytest.raises(StoreCorruptionError, match="no checksum"):
            load_index(path, verify=True)

    def test_unknown_family_rejected(self, tmp_path):
        path = tmp_path / "family.idx"
        self._write_header_only(
            path,
            {
                "format": STORE_FORMAT,
                "version": 3,
                "meta": {
                    "z": 4,
                    "alphabet": ["A", "B"],
                    "body": {"family": "martian"},
                },
                "arrays": {
                    "source": {"dtype": "<f8", "shape": [0, 2], "offset": 0, "crc32": 0}
                },
            },
        )
        with pytest.raises(SerializationError, match="family"):
            load_index(path)


class TestShardedDirectoryStore:
    """The per-shard directory store and its manifest validation."""

    def _sharded(self, stored_source):
        return build_index(
            stored_source, 4.0, kind="MWSA", ell=4, shards=3, max_pattern_len=8
        )

    def test_round_trip(self, tmp_path, stored_source):
        from repro.io.store import load_sharded_store, save_sharded_store

        index = self._sharded(stored_source)
        save_sharded_store(tmp_path / "store", index)
        loaded = load_sharded_store(tmp_path / "store")
        assert np.array_equal(
            np.asarray(loaded.source.matrix), stored_source.matrix
        )
        assert loaded.generations == index.generations
        for pattern in _patterns(stored_source):
            assert loaded.locate(pattern) == index.locate(pattern)

    def test_monolithic_rejected(self, tmp_path, stored_source):
        from repro.io.store import save_sharded_store

        mono = build_index(stored_source, 4.0, kind="MWSA", ell=4)
        with pytest.raises(SerializationError, match="ShardedIndex"):
            save_sharded_store(tmp_path / "store", mono)

    def test_bad_manifest_rejected(self, tmp_path, stored_source):
        from repro.io.store import load_sharded_store, save_sharded_store

        index = self._sharded(stored_source)
        save_sharded_store(tmp_path / "store", index)
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        manifest["format"] = "something.else"
        (tmp_path / "store" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SerializationError, match="format"):
            load_sharded_store(tmp_path / "store")

    def test_refresh_rejects_different_shard_plan(self, tmp_path, stored_source):
        from repro.io.store import refresh_sharded_store, save_sharded_store

        index = self._sharded(stored_source)
        save_sharded_store(tmp_path / "store", index)
        resharded = build_index(
            stored_source, 4.0, kind="MWSA", ell=4, shards=2, max_pattern_len=8
        )
        with pytest.raises(SerializationError, match="shard plan"):
            refresh_sharded_store(tmp_path / "store", resharded)


class TestGenerationNamedRefresh:
    """Generation-stamped shard files and the minimal re-map reload."""

    def _sharded(self, stored_source):
        return build_index(
            stored_source, 4.0, kind="MWSA", ell=4, shards=3, max_pattern_len=8
        )

    def _store(self, tmp_path, stored_source):
        from repro.io.store import load_sharded_store, save_sharded_store

        index = self._sharded(stored_source)
        save_sharded_store(tmp_path / "store", index)
        # Work on the loaded copy (RAM mode: we mutate and re-save it).
        return tmp_path / "store", load_sharded_store(tmp_path / "store", mmap=False)

    def test_dirty_shards_get_new_files_and_clean_files_survive(
        self, tmp_path, stored_source
    ):
        from repro.io.store import load_sharded_store, refresh_sharded_store

        directory, index = self._store(tmp_path, stored_source)
        before = {path.name: path.stat().st_mtime_ns for path in directory.iterdir()}
        report = index.apply_updates([(1, {"A": 0.6, "C": 0.4})])
        outcome = refresh_sharded_store(directory, index, generation_names=True)
        assert len(outcome["rewritten"]) == 1
        assert outcome["skipped"] == 2
        # The dirty shard landed in a NEW generation-stamped file; the old
        # file still exists (live mmaps!) and is listed as obsolete.
        (dirty_number,) = outcome["rewritten"]
        manifest = json.loads((directory / "manifest.json").read_text())
        new_name = manifest["shards"][dirty_number]["file"]
        assert f".g{manifest['shards'][dirty_number]['generation']}." in new_name
        assert len(outcome["obsolete"]) == 1
        obsolete = directory / outcome["obsolete"][0].split("/")[-1]
        assert obsolete.exists()
        # Clean shard files are byte-untouched.
        untouched = {
            name: mtime
            for name, mtime in before.items()
            if name != obsolete.name and name != "manifest.json"
        }
        for name, mtime in untouched.items():
            assert (directory / name).stat().st_mtime_ns == mtime
        # A fresh load follows the manifest to the new file and answers match.
        reloaded = load_sharded_store(directory)
        for pattern in _patterns(stored_source):
            assert reloaded.locate(pattern) == index.locate(pattern)

    def test_reload_sharded_store_remaps_only_moved_shards(
        self, tmp_path, stored_source
    ):
        from repro.io.store import (
            load_sharded_store,
            refresh_sharded_store,
            reload_sharded_store,
        )

        directory, authority = self._store(tmp_path, stored_source)
        served = load_sharded_store(directory, mmap=True)
        report = authority.apply_updates([(1, {"A": 0.6, "C": 0.4})])
        refresh_sharded_store(directory, authority, generation_names=True)
        reloaded, moved = reload_sharded_store(directory, served)
        assert len(moved) == 1
        # Untouched shards are the same objects (no re-map, no re-read).
        for number, shard in enumerate(served.shard_indexes):
            if number in moved:
                assert reloaded.shard_indexes[number] is not shard
            else:
                assert reloaded.shard_indexes[number] is shard
        for pattern in _patterns(stored_source):
            assert reloaded.locate(pattern) == authority.locate(pattern)

    def test_default_refresh_stays_in_place(self, tmp_path, stored_source):
        from repro.io.store import refresh_sharded_store

        directory, index = self._store(tmp_path, stored_source)
        names_before = sorted(path.name for path in directory.iterdir())
        index.apply_updates([(1, {"A": 0.6, "C": 0.4})])
        outcome = refresh_sharded_store(directory, index)
        assert outcome["obsolete"] == []
        assert sorted(path.name for path in directory.iterdir()) == names_before
