"""The session corpora depend on their own seeds only, not on what the
tests before them drew."""

from conftest import make_corpus_streams, make_small_spaces


def test_corpus_streams_rebuild_from_seed(small_spaces, corpus_streams):
    assert make_small_spaces() == small_spaces
    assert make_corpus_streams(make_small_spaces()) == corpus_streams
