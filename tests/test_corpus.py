"""Unit tests for the versioned corpus (repro.workloads.corpus)."""

import pytest

from repro.workloads.corpus import Corpus, PackageSpec


class TestCorpus:
    def test_deterministic(self):
        a = Corpus(seed=10, packages=2, releases=2, scale=0.1)
        b = Corpus(seed=10, packages=2, releases=2, scale=0.1)
        assert a.releases == b.releases

    def test_seed_changes_content(self):
        a = Corpus(seed=10, packages=2, releases=2, scale=0.1)
        b = Corpus(seed=11, packages=2, releases=2, scale=0.1)
        assert a.releases != b.releases

    def test_needs_two_releases(self):
        with pytest.raises(ValueError):
            Corpus(releases=1, packages=1)

    def test_pair_count(self, tiny_corpus):
        pairs = list(tiny_corpus.pairs())
        assert len(pairs) == len(tiny_corpus.releases[0])

    def test_pairs_are_adjacent_releases(self, tiny_corpus):
        for pair in tiny_corpus.pairs():
            key = (pair.package, pair.path)
            assert tiny_corpus.releases[pair.release - 1][key] == pair.reference
            assert tiny_corpus.releases[pair.release][key] == pair.version

    def test_versions_differ_but_overlap(self, tiny_corpus):
        from repro.delta import greedy_delta

        # The share of each version a delta must send as literal bytes.
        changed = [
            greedy_delta(p.reference, p.version).added_bytes
            / max(1, len(p.version))
            for p in tiny_corpus.pairs()
            if p.kind != "stable"
        ]
        # Something changed, but most content is shared.
        assert any(c > 0.0 for c in changed)
        assert sum(changed) / len(changed) < 0.8

    def test_custom_specs(self):
        spec = PackageSpec("only", [("a.c", "source", 2_000)])
        corpus = Corpus(seed=3, releases=2, specs=[spec])
        (pair,) = corpus.pairs()
        assert pair.package == "only"
        assert pair.kind == "source"

    def test_name_format(self, tiny_corpus):
        pair = next(tiny_corpus.pairs())
        assert pair.name == "%s/%s@r1" % (pair.package, pair.path)

    def test_total_version_bytes(self, tiny_corpus):
        assert tiny_corpus.total_version_bytes() == \
            sum(len(p.version) for p in tiny_corpus.pairs())

    def test_compression_lands_in_paper_band(self):
        # The corpus's raison d'etre: plain deltas compress versions into
        # (roughly) the paper's 4-10x band on average.
        from repro.analysis import aggregate, measure_pair

        corpus = Corpus(seed=19980601, packages=3, releases=2, scale=0.3)
        summary = aggregate(
            measure_pair(p.name, p.reference, p.version, policies=("local-min",))
            for p in corpus.pairs()
        )
        assert 8.0 < summary.compression_sequential < 30.0
