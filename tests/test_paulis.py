"""Bit-packed Pauli algebra against dense matrices and brute force."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdtn import PauliWord, anticommutes, format_pauli, parse_pauli, pauli_mul
from spdtn import paulis
from spdtn.paulis import anticommute_mask, mul_rows, nwords64, pack_keys

import spd_reference as ref
from conftest import PAULI_MATS, dense_letters, dense_word, random_word


@st.composite
def small_words(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    z = draw(st.sets(st.integers(0, n - 1)))
    x = draw(st.sets(st.integers(0, n - 1)))
    return PauliWord.from_sites(n, z=z, x=x)


@st.composite
def word_pairs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    out = []
    for _ in range(2):
        z = draw(st.sets(st.integers(0, n - 1)))
        x = draw(st.sets(st.integers(0, n - 1)))
        out.append(PauliWord.from_sites(n, z=z, x=x))
    return tuple(out)


class TestCanonicalConvention:
    @given(small_words())
    @settings(deadline=None)
    def test_letters_match_zx_phase_convention(self, word):
        """dense(letters) == (-i)^{|z&x|} (prod Z)(prod X) as matrices."""
        n = word.n
        zmat = np.eye(2**n, dtype=complex)
        xmat = np.eye(2**n, dtype=complex)
        y = 0
        for j in range(n):
            letter = word.site(j)
            zs = "Z" if letter in ("Z", "Y") else "I"
            xs = "X" if letter in ("X", "Y") else "I"
            if letter == "Y":
                y += 1
            zmat = zmat @ dense_letters("I" * j + zs + "I" * (n - 1 - j))
            xmat = xmat @ dense_letters("I" * j + xs + "I" * (n - 1 - j))
        expected = (-1j) ** y * zmat @ xmat
        np.testing.assert_allclose(dense_word(word), expected, atol=1e-12)

    @given(small_words())
    def test_hermitian_and_involutory(self, word):
        m = dense_word(word)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
        np.testing.assert_allclose(m @ m, np.eye(m.shape[0]), atol=1e-12)

    def test_single_site_letters(self):
        for letter in "IXYZ":
            word = parse_pauli("" if letter == "I" else f"{letter}0", 1)
            np.testing.assert_allclose(dense_word(word), PAULI_MATS[letter])
            assert word.site(0) == letter


class TestProducts:
    @given(word_pairs())
    def test_pauli_mul_matches_dense(self, pair):
        a, b = pair
        got = pauli_mul(a, b)
        expected = dense_word(a) @ dense_word(b)
        np.testing.assert_allclose(
            got.phase * dense_word(got.word), expected, atol=1e-12
        )
        assert got.phase in (1, 1j, -1, -1j)

    @given(word_pairs())
    def test_anticommutes_matches_dense(self, pair):
        a, b = pair
        ma, mb = dense_word(a), dense_word(b)
        anti = bool(np.allclose(ma @ mb + mb @ ma, 0.0, atol=1e-12))
        assert anticommutes(a, b) == anti
        if not anti:
            np.testing.assert_allclose(ma @ mb, mb @ ma, atol=1e-12)

    def test_mul_rows_batch_matches_scalar(self, rng):
        n = 70
        left = random_word(rng, n)
        rights = [random_word(rng, n) for _ in range(25)]
        prod, k = mul_rows(left, np.stack([r.row for r in rights]))
        for i, r in enumerate(rights):
            one = pauli_mul(left, r)
            assert PauliWord(n, prod[i]) == one.word
            assert one.phase == [1, 1j, -1, -1j][k[i]]

    def test_word_boundary_packing(self, rng):
        """Products straddling the uint64 boundary match a translated copy."""
        letters_pool = "XYZI"
        for _ in range(50):
            la = [letters_pool[rng.integers(0, 4)] for _ in range(8)]
            lb = [letters_pool[rng.integers(0, 4)] for _ in range(8)]

            def place(ls, offset, n):
                toks = [f"{l}{offset + j}" for j, l in enumerate(ls) if l != "I"]
                return parse_pauli(" ".join(toks), n)

            lo = pauli_mul(place(la, 0, 10), place(lb, 0, 10))
            hi = pauli_mul(place(la, 60, 70), place(lb, 60, 70))
            assert lo.phase == hi.phase
            assert format_pauli(hi.word) == " ".join(
                f"{l}{int(t[1:]) + 60}"
                for t in format_pauli(lo.word).split()
                for l in [t[0]]
            )

    def test_mismatched_sizes_raise(self):
        a = PauliWord.identity(3)
        b = PauliWord.identity(4)
        with pytest.raises(ValueError):
            pauli_mul(a, b)
        with pytest.raises(ValueError):
            anticommutes(a, b)


class TestParseFormat:
    @given(small_words(max_n=70))
    def test_roundtrip(self, word):
        assert parse_pauli(format_pauli(word), word.n) == word

    def test_examples(self):
        w = parse_pauli("X0 Y3 Z62", 64)
        assert w.site(0) == "X" and w.site(3) == "Y" and w.site(62) == "Z"
        assert w.weight == 3
        assert w.support() == (0, 3, 62)
        assert format_pauli(w) == "X0 Y3 Z62"

    def test_empty_is_identity(self):
        assert parse_pauli("", 5) == PauliWord.identity(5)
        assert format_pauli(PauliWord.identity(5)) == ""
        assert str(PauliWord.identity(5)) == "I"

    @pytest.mark.parametrize(
        "text", ["A0", "X", "X-1", "x0", "X0 X0", "X9", "X0Y1", "Z 3"]
    )
    def test_bad_tokens_raise(self, text):
        with pytest.raises(ValueError):
            parse_pauli(text, 9)


class TestPackingAndKeys:
    def test_pack_keys_orders_like_rows(self, rng):
        rows = rng.integers(0, 2**64, size=(40, 4), dtype=np.uint64)
        keys = pack_keys(rows)
        by_key = sorted(range(40), key=lambda i: keys[i])
        by_row = sorted(range(40), key=lambda i: tuple(int(v) for v in rows[i]))
        assert by_key == by_row

    def test_key_is_stable_identity(self):
        w = PauliWord.from_sites(100, z=[0, 64, 99], x=[63, 64])
        assert w.key == pack_keys(w.row).item()
        assert PauliWord(100, w.row.copy()) == w
        assert hash(PauliWord(100, w.row.copy())) == hash(w)

    def test_y_counts(self):
        w = PauliWord.from_sites(130, z=[0, 5, 64, 129], x=[5, 64, 7, 129])
        assert paulis._derive_axis(w).y == 3
        assert w.weight == 5
        assert w.site(5) == "Y" and w.site(129) == "Y" and w.site(7) == "X"

    def test_nwords64(self):
        assert nwords64(1) == 1
        assert nwords64(64) == 1
        assert nwords64(65) == 2
        assert nwords64(128) == 2
        assert nwords64(129) == 3
        with pytest.raises(ValueError):
            nwords64(0)


class TestWordBasics:
    def test_is_z_type(self):
        assert parse_pauli("Z0 Z4", 5).is_z_type
        assert PauliWord.identity(5).is_z_type
        assert not parse_pauli("Z0 X4", 5).is_z_type
        assert not parse_pauli("Y2", 5).is_z_type

    def test_from_sites_validation(self):
        with pytest.raises(ValueError):
            PauliWord.from_sites(4, z=[4])
        with pytest.raises(ValueError):
            PauliWord.from_sites(4, x=[-1])

    def test_row_shape_validation(self):
        with pytest.raises(ValueError):
            PauliWord(65, np.zeros(2, dtype=np.uint64))

    def test_row_is_immutable(self):
        w = PauliWord.identity(3)
        with pytest.raises(ValueError):
            w.row[0] = 1

    @given(small_words())
    @settings(max_examples=30)
    def test_support_matches_sites(self, word):
        assert word.support() == tuple(
            j for j in range(word.n) if word.site(j) != "I"
        )
        assert word.weight == len(word.support())


# -- the int codec against rows built bit by bit ----------------------------

CODEC_SITES = (1, 63, 64, 65, 127, 128, 129)


@st.composite
def lettered_words(draw):
    """A site count around the 64-bit word boundaries and one letter per site."""
    n = draw(st.sampled_from(CODEC_SITES))
    return n, draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n))


def row_of(n: int, letters) -> np.ndarray:
    """The packed big-endian row of a word, set one bit at a time."""
    nw = nwords64(n)
    row = np.zeros(2 * nw, dtype=">u8")
    for j, letter in enumerate(letters):
        bit = np.uint64(1 << (j % 64))
        if letter in "ZY":
            row[j // 64] |= bit
        if letter in "XY":
            row[nw + j // 64] |= bit
    return row


class TestIntCodec:
    @given(lettered_words())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_bitwise_row(self, case):
        n, letters = case
        w = PauliWord(n, row_of(n, letters))
        z, x = w.bits
        assert z == sum(1 << j for j, letter in enumerate(letters) if letter in "ZY")
        assert x == sum(1 << j for j, letter in enumerate(letters) if letter in "XY")
        assert PauliWord.from_bits(n, z, x) == w
        assert [w.site(j) for j in range(n)] == letters
        support = tuple(j for j, letter in enumerate(letters) if letter != "I")
        assert w.support() == support
        assert w.weight == len(support)
        text = " ".join(f"{letters[j]}{j}" for j in support)
        assert format_pauli(w) == text
        assert parse_pauli(text, n) == w

    @given(st.sampled_from(CODEC_SITES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_from_bits_rejects_out_of_range(self, n, data):
        bad = data.draw(st.integers(max_value=-1) | st.integers(min_value=1 << n))
        good = data.draw(st.integers(0, (1 << n) - 1))
        for z, x in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="out of range"):
                PauliWord.from_bits(n, z, x)

    def test_numpy_site_indices(self):
        """Site indices go through ``operator.index``: an int shifted by an
        ``np.int64`` would overflow past bit 63."""
        w = PauliWord.from_sites(127, z=[np.int64(3)], x=np.array([0, 3, 126]))
        assert [w.site(np.int64(j)) for j in (0, 3, 126, 5)] == ["X", "Y", "X", "I"]
        assert w.support() == (0, 3, 126)
        with pytest.raises(TypeError):
            w.site(1.0)
        with pytest.raises(TypeError):
            PauliWord.from_sites(127, x=[1.0])


# -- batch kernels against the popcount-sum references ---------------------

KERNEL_SITES = (1, 63, 64, 65, 127, 128, 139, 200)


@st.composite
def row_batches(draw):
    """A batch of packed rows with any leading shape and either byte order,
    and one axis word: the identity, a few sites around the 64-bit word
    boundaries, or random bits."""
    n = draw(st.sampled_from(KERNEL_SITES))
    nw = nwords64(n)
    shape = draw(st.sampled_from([(), (1,), (7,), (2, 3), (4, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = draw(st.sampled_from(["=u8", ">u8"]))
    # rows: uniform bits or sparse bits, cut to n sites per half
    rows = rng.integers(0, 2**64, size=(*shape, 2 * nw), dtype=np.uint64)
    if draw(st.booleans()):
        rows &= rng.integers(0, 2**64, size=rows.shape, dtype=np.uint64)
        rows &= rng.integers(0, 2**64, size=rows.shape, dtype=np.uint64)
    tail = n - 64 * (nw - 1)
    if tail < 64:
        high = np.uint64((1 << tail) - 1)
        rows[..., nw - 1] &= high
        rows[..., 2 * nw - 1] &= high
    kind = draw(st.sampled_from(["identity", "boundary", "random"]))
    if kind == "identity":
        axis = PauliWord.identity(n)
    elif kind == "boundary":
        near = sorted({j for b in (0, 64, 128, 192) for j in (b - 1, b) if 0 <= j < n} | {n - 1})
        sites = draw(st.lists(st.sampled_from(near), min_size=1, max_size=4))
        xs = draw(st.lists(st.sampled_from(near), max_size=4))
        axis = PauliWord.from_sites(n, z=set(sites), x=set(xs))
    else:
        axis = random_word(rng, n, p=draw(st.sampled_from([0.05, 0.5])))
    return rows.astype(order), axis


class TestBatchKernels:
    @given(row_batches())
    @settings(max_examples=300, deadline=None)
    def test_anticommute_mask_matches_reference(self, case):
        rows, axis = case
        got = anticommute_mask(rows, axis)
        want = ref.anticommute_mask(rows.astype(np.uint64), axis.row)
        assert np.shape(got) == np.shape(want) == rows.shape[:-1]
        assert np.asarray(got).dtype == bool
        assert np.array_equal(got, want)

    @given(row_batches())
    @settings(max_examples=300, deadline=None)
    def test_mul_rows_matches_reference(self, case):
        rights, left = case
        prod, k = mul_rows(left, rights)
        want_prod, want_k = ref.mul_rows(left.row, rights.astype(np.uint64))
        assert prod.dtype == np.dtype(">u8")
        assert prod.shape == rights.shape
        assert np.array_equal(prod, want_prod)
        assert np.shape(k) == np.shape(want_k) == rights.shape[:-1]
        assert np.array_equal(k, want_k)

    @given(row_batches())
    @settings(max_examples=100, deadline=None)
    def test_byte_orders_agree_by_value(self, case):
        """Native and big-endian batches of the same values give equal masks,
        products and phases; products and every word's row are big-endian."""
        rows, axis = case
        native, big = rows.astype("=u8"), rows.astype(">u8")
        assert np.array_equal(anticommute_mask(native, axis), anticommute_mask(big, axis))
        (prod_n, k_n), (prod_b, k_b) = mul_rows(axis, native), mul_rows(axis, big)
        assert prod_n.dtype == prod_b.dtype == np.dtype(">u8")
        assert np.array_equal(prod_n, prod_b) and np.array_equal(k_n, k_b)
        n, first = axis.n, native.reshape(-1, 2 * axis.nw)[0]
        taken = PauliWord(n, first)
        assert np.array_equal(taken.row, first)
        words = [axis, taken, PauliWord.identity(n), PauliWord.from_sites(n, z=[n - 1]),
                 parse_pauli(f"Y{n - 1}", n), pauli_mul(axis, taken).word]
        assert all(w.row.dtype == np.dtype(">u8") for w in words)

    def test_identity_axis_commutes_with_all(self, rng):
        rows = rng.integers(0, 2**64, size=(5, 3, 6), dtype=np.uint64)
        mask = anticommute_mask(rows.astype(">u8"), PauliWord.identity(139))
        assert mask.shape == (5, 3) and not mask.any()

    def test_pack_keys_is_a_view_of_stored_rows(self, rng):
        rows = rng.integers(0, 2**64, size=(30, 4), dtype=np.uint64)
        stored = rows.astype(">u8")
        keys = pack_keys(stored)
        assert np.shares_memory(keys, stored)
        assert np.array_equal(keys, ref.pack_keys(rows))
        assert np.array_equal(pack_keys(rows), ref.pack_keys(rows))
        assert not np.shares_memory(pack_keys(rows), rows)


@st.composite
def one_site_cases(draw):
    """A one-site X, Y or Z axis and a batch of rows whose letters at that
    site cover I, X, Y and Z, so that some rows commute with the axis."""
    n = draw(st.sampled_from([1, 63, 64, 65, 127]))
    nw = nwords64(n)
    j = draw(st.sampled_from(sorted({0, 62, 63, 64, n - 1} & set(range(n)))))
    letter = draw(st.sampled_from("XYZ"))
    axis = parse_pauli(f"{letter}{j}", n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 40))
    rows = np.stack([random_word(rng, n).row for _ in range(count)]).astype(np.uint64)
    w, bit = j // 64, np.uint64(1 << (j % 64))
    letters = rng.integers(0, 4, size=count)
    letters[0] = 0  # an identity at the site: a commuting row in every batch
    for half, on in ((0, letters & 2), (nw, letters & 1)):
        rows[:, half + w] &= ~bit
        rows[:, half + w] |= np.where(on, bit, np.uint64(0))
    return axis, rows.astype(draw(st.sampled_from(["=u8", ">u8"])))


class TestOneSiteProducts:
    @given(one_site_cases())
    @settings(max_examples=300, deadline=None)
    def test_mul_rows_matches_reference(self, case):
        """The phase of a one-site axis comes from the row's two bits at the
        site; products and k mod 4 are the reference's, also in place."""
        axis, rows = case
        want_prod, want_k = ref.mul_rows(axis.row, rows.astype(np.uint64))
        prod, k = mul_rows(axis, rows)
        assert axis._axis.site is not None
        assert np.array_equal(prod, want_prod)
        assert np.array_equal(np.asarray(k) % 4, want_k)
        inplace = rows.astype(">u8")
        prod, k = mul_rows(axis, inplace, out=inplace)
        assert prod is inplace
        assert np.array_equal(prod, want_prod) and np.array_equal(k, want_k)
        assert not ref.anticommute_mask(rows.astype(np.uint64), axis.row).all()


# -- axis constants kept on the word -------------------------------------------


def _axis_cases(n: int) -> dict[str, PauliWord]:
    """Axes of every shape the constants distinguish: one bit, several bits
    in one word of z or x, words on both sides of the 64-bit boundary, Y
    letters, and the identity."""
    last = n - 1
    return {
        "x1": PauliWord.from_sites(n, x=[last]),
        "z1": PauliWord.from_sites(n, z=[63]),
        "y1": PauliWord.from_sites(n, z=[64], x=[64]),
        "zz_one_word": PauliWord.from_sites(n, z=[3, 17]),
        "mixed_one_word": PauliWord.from_sites(n, z=[3, 9], x=[9, 40]),
        "both_words": PauliWord.from_sites(n, z=[5, last], x=[63, 64]),
        "y_both_words": PauliWord.from_sites(n, z=[0, 64, last], x=[0, 64]),
        "identity": PauliWord.identity(n),
    }


class TestAxisConstants:
    @pytest.mark.parametrize("n", [65, 127])
    def test_kernels_match_reference_on_miss_and_hit(self, rng, n):
        """Each axis is used on native and big-endian rows, each twice: the
        first call derives the constants, every later one reads them from
        the word."""
        rows = random_rows(rng, n, 200)
        for name, axis in _axis_cases(n).items():
            want_mask = ref.anticommute_mask(rows, axis.row)
            want_prod, want_k = ref.mul_rows(axis.row, rows)
            assert axis._axis is None, name
            for order in ("=u8", ">u8", "=u8", ">u8"):
                batch = rows.astype(order)
                assert np.array_equal(anticommute_mask(batch, axis), want_mask), name
                const = axis._axis
                prod, k = mul_rows(axis, batch)
                assert prod.dtype == np.dtype(">u8")
                assert np.array_equal(prod, want_prod) and np.array_equal(k, want_k), name
                inplace = batch.astype(">u8")
                prod, k = mul_rows(axis, inplace, out=inplace)
                assert prod is inplace
                assert np.array_equal(prod, want_prod) and np.array_equal(k, want_k), name
                assert axis._axis is const, name

    def test_constants_stay_out_of_equality_and_repr(self):
        used, fresh = PauliWord.from_sites(65, x=[1]), PauliWord.from_sites(65, x=[1])
        anticommute_mask(random_rows(np.random.default_rng(0), 65, 3), used)
        assert used._axis is not None and fresh._axis is None
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)

    def test_single_bit_folds(self):
        """Weight-1 axes fold to one bit and take the nonzero test; every
        other axis takes the popcount parity."""
        single = {name for name, axis in _axis_cases(127).items()
                  if paulis._derive_axis(axis).single}
        assert single == {"x1", "z1", "y1"}

    def test_mul_rows_out_must_match(self, rng):
        rows = random_rows(rng, 65, 4)
        axis = PauliWord.from_sites(65, x=[1])
        for out in (np.empty((3, 4), dtype=">u8"), rows):
            with pytest.raises(ValueError, match="out has shape"):
                mul_rows(axis, rows, out=out)

    def test_threads_sharing_axis_words_match_reference(self, rng):
        """Four threads race over the same fresh axis words, with a short
        switch interval, so they derive and store the words' constants
        together: every mask and product matches the reference."""
        rows = random_rows(rng, 127, 50).astype(">u8")
        axes = [random_word(rng, 127, p=0.1) for _ in range(40)]
        native = rows.astype(np.uint64)
        want = [(ref.anticommute_mask(native, a.row), *ref.mul_rows(a.row, native))
                for a in axes]
        wrong = []

        def work():
            for a, (mask, prod, k) in zip(axes, want):
                got_prod, got_k = mul_rows(a, rows)
                if not (np.array_equal(anticommute_mask(rows, a), mask)
                        and np.array_equal(got_prod, prod) and np.array_equal(got_k, k)):
                    wrong.append(a)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert all(a._axis is not None for a in axes)


def random_rows(rng, n: int, count: int) -> np.ndarray:
    """``count`` native rows of random words on n sites."""
    return np.stack([random_word(rng, n).row for _ in range(count)]).astype(np.uint64)
