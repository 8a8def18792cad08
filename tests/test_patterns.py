"""Equality patterns, orbits, and the grid partitions they induce."""

import dataclasses
import hashlib
from itertools import product

import pytest

from godelnet import (
    interval_partition,
    orbit,
    pattern_of,
    same_orbit,
    square_partition,
)
from godelnet.errors import DomainError, InternalConsistencyError, ResourceLimitError
from godelnet.patterns import class_map_csv, class_map_svg
from godelnet.symbols import BLANK, all_permutations, index_to_digits, recode, zero_fixing_permutations


def test_pattern_blocks():
    pat = pattern_of("aaabcabc")
    assert pat.length == 8
    assert pat.blocks == ((1, 2, 3, 6), (4, 7), (5, 8))


def test_pattern_zero_marking():
    pinned = pattern_of((1, 0, 1), blank_pinned=True)
    assert pinned.zero_block == 1
    assert pattern_of((1, 2, 1), blank_pinned=True).zero_block is None
    assert pattern_of((1, 0, 1)).zero_block is None


def test_same_orbit_basics():
    assert same_orbit((0, 1, 0), (2, 1, 2), 3)
    assert not same_orbit((0, 1, 0), (0, 1, 1), 3)
    assert not same_orbit((0, 1), (0, 1, 0), 3)
    assert same_orbit((), (), 3)


@pytest.mark.parametrize("word, other, want", [
    ((1, 0), (1.0, 0.0), [True, False]),  # floats are symbol tokens: the pinned zero is the blank glyph
    ((1, 0), (True, False), [True, True]),  # bools are ints: False plays the zero digit
    ((0, 0), (0, 0.0), [True, True]),  # 0.0 is the token 0 already seen, so the word's tokens are ints
], ids=["floats", "bools", "repeat"])
def test_same_orbit_tells_tokens_apart_that_compare_equal(word, other, want):
    # the words of each case compare equal and differ only in token types: a memo keyed by the word
    # would answer the floats case with the bools case's result
    assert word == other
    assert [same_orbit(word, other, 3, blank_pinned=pinned) for pinned in (False, True)] == want
    assert [same_orbit(other, word, 3, blank_pinned=pinned) for pinned in (False, True)] == want


def test_same_orbit_pinned_distinguishes_zero_position():
    assert same_orbit((0, 1), (1, 0), 2)
    assert not same_orbit((0, 1), (1, 0), 2, blank_pinned=True)
    assert same_orbit((0, 1), (0, 2), 3, blank_pinned=True)


def test_same_orbit_validates_digits():
    with pytest.raises(DomainError):
        same_orbit((0, 3), (0, 1), 3)
    with pytest.raises(DomainError):
        same_orbit("abcd", "abcd", 3)


@pytest.mark.parametrize("w, u, m, pinned, message", [
    ((0, 3), (0, 1), 3, False, "digit 3 outside 0..2"),
    ((0, 1, 0), (2, 0, 4), 3, False, "digit 4 outside 0..2"),
    ((0, 4, 1, 3), (0, 1, 2, 9), 3, True, "digit 4 outside 0..2"),
    ((0, 1, 2), (0, 1, 2, -1), 4, True, "digit -1 outside 0..3"),
    ("abcd", "abcd", 3, False, "word ('a', 'b', 'c', 'd') uses 4 distinct symbols, more than m=3"),
    (("a", "b", "c", "d"), (0, 7), 3, False, "word ('a', 'b', 'c', 'd') uses 4 distinct symbols, more than m=3"),
    ((0, 1), (BLANK, "x", "y", "z"), 3, True, "word ('⊔', 'x', 'y', 'z') uses 4 distinct symbols, more than m=3"),
    ((0, 1, "x", BLANK), (0,), 3, True, "word (0, 1, 'x', '⊔') uses 4 distinct symbols, more than m=3"),
], ids=["digit-in-w", "digit-in-u", "first-digit-of-w", "negative-digit-in-u", "symbols-in-w",
        "w-before-u", "symbols-in-u", "mixed-word"])
def test_same_orbit_error_messages(w, u, m, pinned, message):
    # w is validated before u, and a word's digits before its distinct count
    with pytest.raises(DomainError) as err:
        same_orbit(w, u, m, blank_pinned=pinned)
    assert str(err.value) == message


@pytest.mark.parametrize("m", [2, 3, 4])
def test_same_orbit_is_orbit_membership_on_digit_words(m):
    words = [w for length in range(5) for w in product(range(m), repeat=length)]
    for pinned in (False, True):
        for w in words:
            images = orbit(w, m, blank_pinned=pinned)
            assert [same_orbit(w, u, m, blank_pinned=pinned) for u in words] == [u in images for u in words]


def test_same_orbit_is_orbit_membership_on_blank_words():
    universe = (BLANK, "a", "b")
    words = [w for length in range(5) for w in product(universe, repeat=length)]
    for pinned in (False, True):
        for w in (w for w in words if BLANK in w):
            images = orbit(w, 3, blank_pinned=pinned, universe=universe)
            assert [same_orbit(w, u, 3, blank_pinned=pinned) for u in words] == [u in images for u in words]


def test_orbit_sizes():
    # k distinct symbols among m give m! / (m-k)! images
    assert len(orbit((0,), 3)) == 3
    assert len(orbit((0, 1), 3)) == 6
    assert len(orbit((0, 1, 2), 3)) == 6
    assert len(orbit((0, 0, 1), 3, blank_pinned=True)) == 2


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("pinned", [False, True])
def test_orbit_is_the_brute_force_recoding_closure(m, pinned):
    perms = zero_fixing_permutations(m) if pinned else all_permutations(m)
    for length in range(0, 5):
        for word in product(range(m), repeat=length):
            assert orbit(word, m, blank_pinned=pinned) == {recode(word, perm) for perm in perms}


def test_orbit_among_twelve_symbols_lists_only_the_images():
    # 12! = 479,001,600 permutations act, but a word with k distinct
    # symbols has only 12! / (12-k)! images (11! / (11-k)! when pinned)
    assert len(orbit((0, 1), 12)) == 12 * 11
    assert len(orbit((0, 1, 0), 12, blank_pinned=True)) == 11
    assert len(orbit((3, 1, 4, 1), 12, blank_pinned=True)) == 11 * 10 * 9
    assert len(orbit((BLANK, "a"), 12, universe=(BLANK,) + tuple("abcdefghijk"), blank_pinned=True)) == 11


def test_orbit_of_symbol_word_needs_universe_when_smaller():
    with pytest.raises(DomainError):
        orbit("ab", 3)
    members = orbit("ab", 3, universe=("a", "b", "c"))
    assert ("c", "a") in members and len(members) == 6


def test_orbit_members_are_equivalent():
    word = (1, 0, 2, 1)
    for member in orbit(word, 3):
        assert same_orbit(word, member, 3)


def test_interval_partition_small():
    cmap = interval_partition(3, 2)
    assert cmap.class_count == 2
    assert cmap.class_of(0) == cmap.class_of(4) == cmap.class_of(8)
    assert cmap.class_of(1) != cmap.class_of(0)
    pinned = interval_partition(3, 2, blank_pinned=True)
    assert pinned.class_count == 5


def test_interval_partition_matches_recoding_closure():
    cmap = interval_partition(3, 3)
    for k, cid in enumerate(cmap.assignment):
        digits = index_to_digits(k, 3, 3)
        for perm in all_permutations(3):
            image = recode(digits, perm)
            k2 = int("".join(map(str, image)), 3)
            assert cmap.class_of(k2) == cid


def test_square_partition_modes_differ():
    joint = square_partition(3, 1, 1, mode="joint", blank_pinned=True)
    prod = square_partition(3, 1, 1, mode="product", blank_pinned=True)
    # (1, 2) and (1, 1): one shared permutation distinguishes them,
    # independent per-side permutations do not
    assert joint.class_of((1, 2)) != joint.class_of((1, 1))
    assert prod.class_of((1, 2)) == prod.class_of((1, 1))
    assert joint.class_count == 5
    assert prod.class_count == 4
    assert square_partition(3, 1, 1, mode="joint").class_count == 2
    assert square_partition(3, 1, 1, mode="product").class_count == 1


def test_square_partition_mixed_bases():
    cmap = square_partition(3, 1, 1, mode="product", m_right=5)
    assert len(cmap.cells()) == 15
    with pytest.raises(DomainError):
        square_partition(3, 1, 1, mode="joint", m_right=5)


def test_square_partition_class_ids_contiguous():
    cmap = square_partition(3, 2, 2, mode="joint")
    ids = cmap.assignment
    assert len(ids) == 9 * 9
    assert all(cmap.class_of(divmod(k, 9)) == cid for k, cid in enumerate(ids))
    assert min(ids) == 0 and max(ids) == cmap.class_count - 1
    seen = set()
    for cid in ids:
        assert cid <= len(seen)  # first occurrences appear in order
        seen.add(cid)


@pytest.mark.parametrize("cmap, outside", [
    (interval_partition(3, 2, blank_pinned=True), [9, -1, (0, 0), 1.0, "0"]),
    (square_partition(3, 1, 2, mode="joint"), [(3, 0), (0, 9), 0, (0,), (0, 0, 0), (0.0, 0)]),
    (square_partition(3, 1, 1, mode="product", m_right=5), [(0, 5), (3, 0), (-1, 0), (0, -1)]),
])
def test_class_of_agrees_with_members(cmap, outside):
    grid = set(cmap.cells())
    covered = []
    for cid in range(cmap.class_count):
        members = cmap.members(cid)
        assert members
        assert all(cmap.class_of(cell) == cid for cell in members)
        covered.extend(members)
    assert sorted(covered) == sorted(grid)
    for cell in outside:
        with pytest.raises(DomainError):
            cmap.class_of(cell)


def test_class_map_rejects_an_assignment_of_another_grid():
    good = square_partition(3, 1, 1, mode="product", m_right=5)
    assert dataclasses.replace(good, assignment=good.assignment) == good
    for ids in (good.assignment[:-1], good.assignment + (0,), ()):
        with pytest.raises(InternalConsistencyError):
            dataclasses.replace(good, assignment=ids)
    with pytest.raises(InternalConsistencyError):
        dataclasses.replace(good, kind="interval")  # 15 ids for a 3 x 1 grid


def test_class_map_lookup_errors():
    cmap = interval_partition(2, 2)
    with pytest.raises(DomainError):
        cmap.class_of(7)


def test_cell_budget_guard(monkeypatch):
    monkeypatch.setattr("godelnet.patterns.DEFAULT_CELL_BUDGET", 100)
    with pytest.raises(ResourceLimitError, match="interval partition needs 243 cells, budget is 100"):
        interval_partition(3, 5)
    with pytest.raises(ResourceLimitError, match="square partition needs 729 cells, budget is 100"):
        square_partition(3, 3, 3)


@pytest.mark.parametrize("mode, m_right, calls", [("joint", 3, 3**5), ("product", 5, 3**3 + 5**2)])
def test_square_partition_patterns_each_word_once(monkeypatch, mode, m_right, calls):
    import godelnet.patterns as patterns

    words = []
    real = patterns.pattern_of
    monkeypatch.setattr(patterns, "pattern_of", lambda word, *args: words.append(word) or real(word, *args))
    square_partition(3, 3, 2, mode=mode, blank_pinned=True, m_right=m_right)
    assert len(words) == calls


def test_class_map_exports():
    cmap = square_partition(3, 1, 2, mode="product")
    text = class_map_csv(cmap)
    lines = text.strip().splitlines()
    assert lines[0] == "i,j,x_corner_digits,y_corner_digits,class"
    assert len(lines) == 1 + 3 * 9
    svg = class_map_svg(cmap)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    strip = class_map_svg(interval_partition(3, 2))
    assert strip.startswith("<svg")


#: sha256 of class_map_csv and class_map_svg per map, frozen so that no
#: change of the class map's storage can change an export byte:
#: (kind, m, l, r, m_right, mode, pinned) -> digests.
EXPORT_DIGESTS = (
    (("interval", 2, 0, 0, 0, "", False), "d3dc93b793823f4a97e541087b0aead7fd056f88aa9e09dd693ab91b01904b8a", "ab6d83a5e3051ea7e8f4420044d69d7d6b0bf33ecf36cb918f6e40c9fa269586"),
    (("interval", 2, 0, 0, 0, "", True), "d3dc93b793823f4a97e541087b0aead7fd056f88aa9e09dd693ab91b01904b8a", "ab6d83a5e3051ea7e8f4420044d69d7d6b0bf33ecf36cb918f6e40c9fa269586"),
    (("interval", 2, 1, 0, 0, "", False), "fe374fc0be5219014b94dae0755a7e4085d5744006014b21242dd77a7c5fb949", "87d49d6d4dd3af0810e465d60af48a001847981ca4965448f637729807498462"),
    (("interval", 2, 1, 0, 0, "", True), "49ce70bb105900d24fa3ee5a02f62ca88dc516762adf891aed0591a569bb1e24", "1bdcc3dae6fd087e8b9ab00b105cd82599bbe5616c036123c5f3c72869667db8"),
    (("interval", 2, 2, 0, 0, "", False), "63b414f4fc7481cc53d143f5996138a7fdd213b23598fdaae17db00177a25df7", "82e75195cdec6953e9786e5137d1087fb4862b3ab4b85f317e4bb09f73775cf0"),
    (("interval", 2, 2, 0, 0, "", True), "1114836c5d207413e6489de60a012582cae69dbf92e7899972a62a018c329aa1", "d6f33808314a77fa97b1a7dfb165e31915d082c123c64ba15ef8d1f67a9ef36f"),
    (("interval", 2, 3, 0, 0, "", False), "4786f141c293c863126e910612ffcbccd7ea95bbada8f80120f5d001c02f864b", "704dba96be433a870138957ad3091ea2dcfffdfb283c55285629eda2709a4d51"),
    (("interval", 2, 3, 0, 0, "", True), "35c80c1f9e8de822d4e36c627dac4f688c4db30ef3cfa96f2abeaac2e3a392d6", "71e0d9c0f8faf68d4876052a5feaf1ad0916953f84231297e173a66d89e75bf1"),
    (("interval", 3, 0, 0, 0, "", False), "d3dc93b793823f4a97e541087b0aead7fd056f88aa9e09dd693ab91b01904b8a", "c74159de58f9453e4f9bd92c080aa436f4698e0c6951de7605fa994af5624c42"),
    (("interval", 3, 0, 0, 0, "", True), "d3dc93b793823f4a97e541087b0aead7fd056f88aa9e09dd693ab91b01904b8a", "c74159de58f9453e4f9bd92c080aa436f4698e0c6951de7605fa994af5624c42"),
    (("interval", 3, 1, 0, 0, "", False), "3bbdeb67a3f5dc7f70e0281a33fd4a0eb89c986736f367c36a0c9b7f27619b08", "49bcb5499f95bac34d18aa2c3140505b731f079d2858022125003eb17e2014d8"),
    (("interval", 3, 1, 0, 0, "", True), "13003661283a47a8b2421a7d027e787fe61dc71b221553db63069ed84c3334c9", "fdb19debc475aa90c80437b1f036eba60dd190fd3d026ea697d0f75e9d604b35"),
    (("interval", 3, 2, 0, 0, "", False), "51f32478467431bf6d7adcb53ea9ed5fe342431d03ed0e759c96c47d688ca640", "5a294b2178f729c9afa8d6c653fd7474166b50bf66048429c0f4d3642ed79268"),
    (("interval", 3, 2, 0, 0, "", True), "2f7ba6f94025a2bf23cafe85cd1154ef7258ca99893b0b5c96f073c587bee684", "726b5179cc0b510b2f2952d89e7d104472bbb83ff9eaa2a2b9dedef3efc5f863"),
    (("interval", 3, 3, 0, 0, "", False), "c6fe8982ad6e72e04f64b744d7a9d9ddc278ff2a6f14ccf1684278f206c59b1d", "64f2dc133b01412f4b1fd758a5b23152cb971bd6682937d2cfcae76aa85ecaf2"),
    (("interval", 3, 3, 0, 0, "", True), "dfef42e4b9595afcba0abd1dd2c07a05a9ce46cca80df6266d91ede9e104a04c", "26fe44cc6c3dd9dc643f98ca1bca4b904a44a898c4afbac77a9bae53fe45e53d"),
    (("square", 3, 1, 1, 3, "joint", False), "ce1b82142f848c7eec364896cdd21a187812840000bd298fd9de91aa5b5c4f09", "41cfe1aee1386c78fc760389439648516c33280aaf1f35f8466e9b097f43d63f"),
    (("square", 3, 1, 1, 3, "joint", True), "f570ab4536044f2ea6a4079bfb42f6d756c20882fa2ec1e708178df158675f75", "86c438e19d670946dc189f3450bba421971158e51e6ca687c8c5d72aca8ef471"),
    (("square", 3, 2, 2, 3, "joint", False), "d26c7cc6aceacaa04c570c69284978067e752dcdc49281351bd203438def5e0a", "c8044f4e377a74058b9904e70aa4184816362ff4e70e90a92ee42a80d82359da"),
    (("square", 3, 2, 2, 3, "joint", True), "643f513763c2fca5dcbdf154a31ac2c3539503d7efecc8f8a3a1b56a64d334dd", "72e3545d67b6e84a44137afd9d1be4025baeb2c9237726d2c3b7cb100ad16e75"),
    (("square", 2, 2, 3, 2, "joint", False), "de17129f388f590302690f305eb1dcab318d68135d67be532e1088e13320d319", "8b835c69fe44fa793c4ea69ba51db833948f05352cf8cb4d6f7b94d731cace0d"),
    (("square", 2, 2, 3, 2, "joint", True), "ea74f23d210e7fb051bffd6052a1a1931cc4dbdb98d27bde4f06ce37c59e6943", "1d4639f26b5381eba315e9c49470c3d2006b68a1a572c9a4bc47e3f633413cab"),
    (("square", 3, 2, 0, 3, "joint", False), "bf3736226d5577aa1dc25868d878f8d87b437ea7e5bc5f4db62a7f31618c0c64", "127943bc22dc7110e64d559557620bfa48b47337afc9ac83b81425f4c25bdf53"),
    (("square", 3, 2, 0, 3, "joint", True), "1c50a2cff801e7a5cac9e8e587f8e337ca2309ec33ab1f64cb508ce06272b3e6", "a2911d539321b2da60a614e85138ae81e091bf3220c405deea669a3f4a7e62de"),
    (("square", 3, 1, 2, 3, "product", False), "6ece29c7d3c038a76ef2e22f7fa3aa9aee2689607a727c416007e093bc2114e9", "9b17c643677a2bb54129c8a3876540c92559db0c1874ddc5a6c8ce25d6d2cc46"),
    (("square", 3, 1, 2, 3, "product", True), "f3a328fc0daea4a00c88ccc9afe48e999603cb329a8d546cfd92776ccca900c4", "b9f7dc3b400632a050905f02d755abdb9d493ed1be407f1faa5ed30946069845"),
    (("square", 3, 2, 2, 3, "product", False), "1be0f606eb311696eefb5467c29410aa9299024f19f79eb065c086e376656840", "a53b4810a5cdcc2fbe6946e15ff8cee8057e888c854b971135eb8b235700880d"),
    (("square", 3, 2, 2, 3, "product", True), "55ed6e48a7be120fa497a27403048310030274eb7a2b6887a02667cc89f82260", "8af987ebf348ae0a497db5f4582ac21ab85c8d9b1245e4b394f7bb3c793e56ea"),
    (("square", 3, 2, 1, 5, "product", False), "2e40ba9b119918a00b2499500c6813d025b410aec42a3ee38e83cdd5815b7200", "eca04dfe880b8cb204b6d40a3c32b036c5926e447959445aacb5da46f1aaa930"),
    (("square", 3, 2, 1, 5, "product", True), "a023ac1ceb9ba462825899bd39e4ee4bf82d085caadad439a66a6b364eda4bce", "dca89e935779293b5ff37b29bc37d6051e1c25f0db1f74f386d7d0b41a6b67b3"),
    (("square", 3, 0, 2, 5, "product", False), "f9f361c0e0a00efb865cb63f83cabd1b40e92c10f34143938c14b98b215a1421", "f5b03c88b96190023a41106052942c90ef23db5bda2bb21c39549c754c71b6df"),
    (("square", 3, 0, 2, 5, "product", True), "6faca9fb74b813143c631b9008e86a2170a5b0947c0dcad1a7998c1ee87fc7e5", "92174708004f6733b8073ecbc2c58a9fb71578a714ecdc84c953190ae4d921bc"),
    (("square", 3, 2, 0, 5, "product", False), "bf3736226d5577aa1dc25868d878f8d87b437ea7e5bc5f4db62a7f31618c0c64", "370e0348ab6da657a74d495d8c5ad0600bdaea8e9fc1584f10d3eba0ca61e76d"),
    (("square", 3, 2, 0, 5, "product", True), "1c50a2cff801e7a5cac9e8e587f8e337ca2309ec33ab1f64cb508ce06272b3e6", "c30cf5408d6c09b633e2a10e64320325c39f77f9f02ed45961757d9bfda0f8df"),
    (("square", 3, 0, 2, 3, "joint", False), "57f04dfd03de7b6676d92a806db0d79ee5c1bc21862fae7ecb46f1803d552a7a", "b7824eee25d678a368cc40173dc8bec62f73aa939bd6f12bfb0d26eecb74dcf4"),
    (("square", 3, 0, 2, 3, "joint", True), "46ddb14d0889565cd51c405eb76d45a66fc572ce7c1848e739aad1761fd50a3a", "71d9e8b096d083df2259c4b7e06552a10cc7940c896e235175a0aaf769fbc141"),
    (("square", 3, 0, 0, 5, "product", False), "12ec7ff02091cedcc6dea56c90f7aecd23e3a3a259338b0c7b4093c7600654e7", "a2f8fe018f2f83b5c5b5cce4fb2195b4624ad7627ad52bc14f2d6ddb30a636ff"),
    (("square", 3, 0, 0, 5, "product", True), "12ec7ff02091cedcc6dea56c90f7aecd23e3a3a259338b0c7b4093c7600654e7", "a2f8fe018f2f83b5c5b5cce4fb2195b4624ad7627ad52bc14f2d6ddb30a636ff"),
    (("square", 5, 1, 2, 3, "product", False), "83d311b1bb580dd3dd97a4181e642751e817dc58d1688826cac8254ef60c782a", "0fd8004bec70b3c057f84d1dd683aefa09df82cc997af0d1bbf841738601f59e"),
    (("square", 5, 1, 2, 3, "product", True), "ab1092dd756e565726d0d48ed36c8269c19cfcd9e6bf797a2a09af6b1a1f278d", "022e765fc3ef973a6892f5053ce5aa0ce875dfd6e2db21537a4ec06a99e47017"),
)


def _class_map(kind, m, l, r, m_right, mode, pinned):
    if kind == "interval":
        return interval_partition(m, l, blank_pinned=pinned)
    return square_partition(m, l, r, mode=mode, blank_pinned=pinned, m_right=m_right)


@pytest.mark.parametrize("key, csv_sha, svg_sha", EXPORT_DIGESTS,
                         ids=["-".join(map(str, key)) for key, _, _ in EXPORT_DIGESTS])
def test_class_map_exports_keep_their_bytes(key, csv_sha, svg_sha):
    cmap = _class_map(*key)
    assert hashlib.sha256(class_map_csv(cmap).encode("utf-8")).hexdigest() == csv_sha
    assert hashlib.sha256(class_map_svg(cmap).encode("utf-8")).hexdigest() == svg_sha
