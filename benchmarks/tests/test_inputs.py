"""The seeded input generator."""

import collections

import inputs
import oracle
import run


def _texts(seed) -> bytes:
    words = [
        inputs.format_word(w) for w in inputs.fixed_words(run.WORDS_PER_ROUND)
    ]
    forests = [
        inputs.format_parent_forest(p, c)
        for p, c in inputs.random_forests(seed, run.FORESTS_PER_ROUND)
    ]
    return "\n".join(words + forests).encode()


def test_same_seed_gives_byte_identical_inputs():
    assert _texts(3) == _texts(3)
    for workload in ("rho-words", "rhot-forests"):
        first = repr(run.make_inputs(workload, 7)).encode()
        assert first == repr(run.make_inputs(workload, 7)).encode()


def test_seed_changes_the_forests_but_not_the_word_list():
    forests = run.make_inputs("rhot-forests", 7)
    assert forests != run.make_inputs("rhot-forests", 8)
    assert run.make_inputs("rho-words", 7) == run.make_inputs("rho-words", 8)


def test_every_word_has_class_3_4_and_words_are_distinct():
    words = inputs.fixed_words(run.WORDS_PER_ROUND)
    assert len(set(words)) == len(words) == run.WORDS_PER_ROUND
    for word in words:
        assert all(any(letter) for letter in word)
        assert tuple(map(sum, zip(*word))) == (3, 4)


def test_word_lengths_follow_their_share_of_all_words():
    words = run.WORDS_PER_ROUND
    lengths = collections.Counter(len(w) for w in inputs.fixed_words(words))
    every = collections.Counter(len(w) for w in inputs.compositions((3, 4)))
    assert sum(every.values()) == 768
    assert sum(lengths.values()) == words
    for n, count in every.items():
        assert abs(lengths[n] - words * count / 768) < 1


def test_every_forest_has_class_4_4_and_is_a_forest():
    for parents, colors in inputs.random_forests(11, run.FORESTS_PER_ROUND):
        assert oracle.vertex_class(colors, 2) == (4, 4)
        for v in range(len(parents)):
            seen, u = set(), v
            while u >= 0:
                assert u not in seen, "cycle"
                seen.add(u)
                u = parents[u]


def test_forest_shapes_do_not_depend_on_the_seed():
    def chains(seed):
        forests = inputs.random_forests(seed, 20)
        return [oracle.total_chains(p, c, 2) for p, c in forests]

    assert chains(1) == chains(2)


def test_forest_text_parses_to_the_same_forest():
    from foresthall import ColorTable, parse_forest

    colors = ColorTable(inputs.COLORS)
    for parents, cols in inputs.random_forests(2, 20):
        text = inputs.format_parent_forest(parents, cols)
        forest = parse_forest(text, colors)
        assert forest.size == 8
        want = oracle.total_chains(parents, cols, 2)
        assert oracle.total_chains(*oracle.flatten(forest), 2) == want
