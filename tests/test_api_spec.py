"""Tests of the unified Spec front door: constructors, hashing, errors."""

from __future__ import annotations

import pickle

import pytest

from repro.api import Spec, SpecError
from repro.benchmarks.classic import load_classic
from repro.stg.stg import STG
from repro.stg.writer import write_g


class TestConstructors:
    def test_from_benchmark(self):
        spec = Spec.from_benchmark("handshake_seq")
        assert spec.name == "handshake_seq"
        assert spec.origin == "benchmark"
        assert isinstance(spec.stg, STG)

    def test_from_stg_keeps_the_instance(self):
        stg = load_classic("sequencer")
        spec = Spec.from_stg(stg)
        assert spec.stg is stg

    def test_from_text(self):
        text = write_g(load_classic("handshake_seq"))
        spec = Spec.from_text(text)
        assert spec.stg.non_input_signals == ["ack"]
        assert spec.origin == "text"

    def test_from_file(self, tmp_path):
        path = tmp_path / "seq.g"
        path.write_text(write_g(load_classic("sequencer")))
        spec = Spec.from_file(path)
        # the .model directive takes precedence over the file name
        assert spec.name == "sequencer"
        assert spec.origin == "file"
        assert sorted(spec.stg.non_input_signals) == ["ack", "r1", "r2"]

    def test_load_dispatch(self, tmp_path):
        assert Spec.load("handshake_seq").origin == "benchmark"
        assert Spec.load(load_classic("sequencer")).origin == "stg"
        text = write_g(load_classic("handshake_seq"))
        assert Spec.load(text).origin == "text"
        path = tmp_path / "hs.g"
        path.write_text(text)
        assert Spec.load(str(path)).origin == "file"
        spec = Spec.load("fig1")
        assert Spec.load(spec) is spec

    def test_load_path_containing_dot_graph(self, tmp_path):
        """A file path with '.graph' in its name is a path, not inline text."""
        path = tmp_path / "my.graph.g"
        path.write_text(write_g(load_classic("handshake_seq")))
        spec = Spec.load(str(path))
        assert spec.origin == "file"
        assert spec.stg.non_input_signals == ["ack"]


class TestContentHash:
    def test_stable_across_load_paths(self, tmp_path):
        by_name = Spec.from_benchmark("sequencer")
        by_stg = Spec.from_stg(load_classic("sequencer"))
        by_text = Spec.from_text(by_name.text)
        assert by_name.content_hash == by_stg.content_hash == by_text.content_hash
        assert by_name == by_stg
        assert len({by_name, by_stg, by_text}) == 1

    def test_formatting_does_not_change_the_hash(self):
        base = Spec.from_benchmark("handshake_seq")
        noisy = base.text.replace("\n.graph", "\n# a comment\n.graph")
        assert Spec.from_text(noisy).content_hash == base.content_hash

    def test_different_specs_different_hash(self):
        assert (
            Spec.from_benchmark("handshake_seq").content_hash
            != Spec.from_benchmark("sequencer").content_hash
        )


class TestErrors:
    def test_unknown_benchmark(self):
        with pytest.raises(SpecError, match="neither an existing"):
            Spec.load("definitely_not_registered")

    def test_missing_file(self):
        with pytest.raises(SpecError, match="cannot read"):
            Spec.from_file("/nonexistent/path/spec.g")

    def test_malformed_text(self):
        with pytest.raises(SpecError, match="malformed"):
            Spec.from_text(".model broken\n.inputs a\n.outputs b\n.end\n")

    def test_wrong_type(self):
        with pytest.raises(SpecError):
            Spec.load(42)
        with pytest.raises(SpecError):
            Spec.from_stg("not an stg")


class TestPickle:
    def test_round_trip_drops_and_rebuilds_the_stg(self):
        spec = Spec.from_benchmark("sequencer")
        _ = spec.stg  # force the parsed handle
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.content_hash == spec.content_hash
        assert clone.name == spec.name
        # the STG is re-parsed lazily in the unpickling process
        assert clone.stg.non_input_signals == spec.stg.non_input_signals


class TestTextAndMemorySpecsAgree:
    def test_pipeline_from_text_matches_the_in_memory_stg(self):
        from repro.api import Pipeline, SynthesisOptions
        from repro.benchmarks.scalable import muller_pipeline
        from repro.petri.smcover import compute_sm_components

        def without_timings(value):
            if isinstance(value, dict):
                return {
                    key: without_timings(item)
                    for key, item in value.items()
                    if key not in ("seconds", "total_seconds")
                }
            return value

        stg = muller_pipeline(20)
        built = Spec.from_stg(stg)
        parsed = Spec.from_text(write_g(stg))
        assert parsed.stg.net.places != built.stg.net.places  # declared in another order
        components = [
            [component.places for component in compute_sm_components(spec.stg.net)]
            for spec in (built, parsed)
        ]
        assert components[0] == components[1]
        reports = [
            Pipeline().run(spec, SynthesisOptions(), map_technology=True).to_dict()
            for spec in (built, parsed)
        ]
        assert without_timings(reports[0]) == without_timings(reports[1])
