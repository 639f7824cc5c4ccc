"""Bit-packed Pauli algebra against dense matrices and brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdtn import PauliWord, anticommutes, format_pauli, parse_pauli, pauli_mul
from spdtn.paulis import anticommute_mask, mul_rows, nwords64, pack_keys, y_counts

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
        prod, k = mul_rows(left.row, np.stack([r.row for r in rights]))
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
        assert y_counts(w.row[None, :])[0] == 3
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


# -- batch kernels against the popcount-sum references ---------------------

KERNEL_SITES = (1, 63, 64, 65, 127, 128, 139, 200)


@st.composite
def row_batches(draw):
    """A batch of packed rows with any leading shape and either byte order,
    and one axis row: the identity, a few sites around the 64-bit word
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
    axis_order = draw(st.sampled_from(["=u8", ">u8"]))
    return rows.astype(order), axis.row.astype(axis_order)


class TestBatchKernels:
    @given(row_batches())
    @settings(max_examples=300, deadline=None)
    def test_anticommute_mask_matches_reference(self, case):
        rows, axis = case
        got = anticommute_mask(rows, axis)
        want = ref.anticommute_mask(rows.astype(np.uint64), axis.astype(np.uint64))
        assert np.shape(got) == np.shape(want) == rows.shape[:-1]
        assert np.asarray(got).dtype == bool
        assert np.array_equal(got, want)

    @given(row_batches())
    @settings(max_examples=300, deadline=None)
    def test_mul_rows_matches_reference(self, case):
        rights, left = case
        prod, k = mul_rows(left, rights)
        want_prod, want_k = ref.mul_rows(left.astype(np.uint64), rights.astype(np.uint64))
        assert prod.dtype == rights.dtype
        assert prod.shape == rights.shape
        assert np.array_equal(prod, want_prod)
        assert np.shape(k) == np.shape(want_k) == rights.shape[:-1]
        assert np.array_equal(k, want_k)

    def test_identity_axis_commutes_with_all(self, rng):
        rows = rng.integers(0, 2**64, size=(5, 3, 6), dtype=np.uint64)
        mask = anticommute_mask(rows.astype(">u8"), PauliWord.identity(139).row)
        assert mask.shape == (5, 3) and not mask.any()

    def test_pack_keys_is_a_view_of_stored_rows(self, rng):
        rows = rng.integers(0, 2**64, size=(30, 4), dtype=np.uint64)
        stored = rows.astype(">u8")
        keys = pack_keys(stored)
        assert np.shares_memory(keys, stored)
        assert np.array_equal(keys, ref.pack_keys(rows))
        assert np.array_equal(pack_keys(rows), ref.pack_keys(rows))
        assert not np.shares_memory(pack_keys(rows), rows)
